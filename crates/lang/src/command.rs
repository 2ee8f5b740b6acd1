//! The operator language: parsed commands and their evaluation against a
//! knowledge base.
//!
//! This is the "simple and uniform interface" of paper §6: "through the
//! use of multiple operators, a single language is used to specify the
//! schema (including integrity constraints), the information added to the
//! database, and the queries to it". Commands are written as
//! s-expressions, e.g.:
//!
//! ```text
//! (define-role thing-driven)
//! (define-concept RICH-KID (AND STUDENT (ALL thing-driven SPORTS-CAR)
//!                                (AT-LEAST 2 thing-driven)))
//! (create-ind Rocky)
//! (assert-ind Rocky (FILLS thing-driven Volvo-17))
//! (assert-rule STUDENT (ALL eat JUNK-FOOD))
//! (retrieve (AND STUDENT (AT-LEAST 2 thing-driven)))
//! (ask-description (AND STUDENT (ALL eat ?:THING)))
//! (subsumes? PERSON STUDENT)
//! ```
//!
//! The same command stream doubles as the persistence format
//! (`classic-store`) and the wire protocol (`classic-server`), honoring
//! the paper's point that one language plays every role.
//!
//! Since the PR-6 API redesign, **parsing is pure**: [`parse`] turns text
//! into [`Command`]s over the unresolved [`crate::ast`] (names as
//! symbols), with no KB in scope — so a server can parse a request before
//! choosing a tenant, and many threads can parse concurrently. Name
//! resolution happens inside [`eval`]. Evaluation yields a data-first
//! [`Outcome`] with two renderers shared by the REPL and the wire
//! protocol: [`Outcome::render_text`] and [`Outcome::render_json`].

use crate::ast::{Expr, IndLit, QueryExpr};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::parser::Parser;
use classic_core::aspect::AspectKind;
use classic_core::desc::IndRef;
use classic_core::error::{ClassicError, Result};
use classic_kb::{AssertReport, BulkReport, Kb, RetractReport};
use classic_obs::json_string;
use classic_query::Query;

/// A parsed top-level command over the unresolved AST: every concept or
/// query payload is an [`Expr`]/[`QueryExpr`] whose names are still
/// strings. Resolution against a concrete KB happens at [`eval`] time.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `(define-role name)` (§3.1).
    DefineRole(String),
    /// `(define-attribute name)`: a single-valued role.
    DefineAttribute(String),
    /// `(define-concept NAME expr)` (§3.1).
    DefineConcept(String, Expr),
    /// `(create-ind Name)` (§3.2).
    CreateInd(String),
    /// `(assert-ind Name expr)` (§3.2).
    AssertInd(String, Expr),
    /// `(assert-rule NAME expr)` (§3.3).
    AssertRule(String, Expr),
    /// `(retract-ind Name expr)`: remove a told description and re-derive
    /// everything that depended on it.
    RetractInd(String, Expr),
    /// `(retract-rule NAME expr)`: retire a rule and re-derive the
    /// individuals it fired on.
    RetractRule(String, Expr),
    /// `(retract-rule 7)`: retire a rule by the id echoed when it was
    /// asserted (`list-rules` shows the live ids).
    RetractRuleById(usize),
    /// `(list-rules)`: every live rule with its id, antecedent, and
    /// consequent.
    ListRules,
    /// `(obs-stats)` / `(obs-stats json)`: dump this KB's metric
    /// registry in Prometheus text or JSON exposition format.
    ObsStats {
        /// Render JSON instead of Prometheus text.
        json: bool,
    },
    /// `(obs-trace op)`: render the flight recorder's retained traces
    /// whose root span matches `op` (e.g. `kb.assert`,
    /// `query.retrieve`); `(obs-trace *)` lists the retained ops.
    ObsTrace(String),
    /// `(obs-reset)`: zero every metric series and clear the flight
    /// recorder.
    ObsReset,
    /// `(obs-level off|counters|full)`: set the process-wide
    /// observability level (`full` enables span tracing for
    /// `obs-trace`); `(obs-level)` reports the current one.
    ObsLevel(Option<String>),
    /// `(obs-sample rate)`: set the process-wide head-sampling rate for
    /// request tracing (`0.0`–`1.0`; a request that loses the draw
    /// records no spans but is still timed and slowlog-eligible);
    /// `(obs-sample)` reports the current rate.
    ObsSample(Option<f64>),
    /// `(obs-slowlog [n])`: render the up-to-`n` (default 10) slowest
    /// wire requests from the process-global slow-op log, with request
    /// identity and span trees.
    ObsSlowlog(Option<usize>),
    /// `(provenance Name)`: where the individual's derived information
    /// came from (the dependency journal, rendered).
    Provenance(String),
    /// `(retrieve q)` / `(instances q)`: known answers.
    Retrieve(QueryExpr),
    /// `(possible q)`: open-world possible answers.
    Possible(Expr),
    /// `(ask-necessary-set q)`: fillers at the marker across answers.
    AskNecessarySet(QueryExpr),
    /// `(ask-description q)`: intensional answer.
    AskDescription(QueryExpr),
    /// `(subsumes? C1 C2)`.
    Subsumes(Expr, Expr),
    /// `(equivalent? C1 C2)`.
    Equivalent(Expr, Expr),
    /// `(disjoint? C1 C2)`.
    Disjoint(Expr, Expr),
    /// `(concept-aspect NAME KIND [role])`.
    ConceptAspect(String, AspectKind, Option<String>),
    /// `(ind-aspect Name KIND [role])`.
    IndAspect(String, AspectKind, Option<String>),
    /// `(describe Name)`: descriptive answer for one individual.
    Describe(String),
    /// `(parents NAME)`: immediate subsumers in the taxonomy.
    Parents(String),
    /// `(children NAME)`: immediate subsumees in the taxonomy.
    Children(String),
    /// `(classify expr)`: immediate named parents/children/equivalents of
    /// an arbitrary concept expression (§3.5.1).
    Classify(Expr),
    /// `(why? Ind NAME)`: explain why the individual is or is not
    /// recognized under the named concept (the explanation extension).
    Why(String, String),
    /// `(what-if? Ind expr)`: hypothetical assertion — report whether the
    /// update would be accepted and what it would derive, then roll it
    /// back unconditionally.
    WhatIf(String, Expr),
    /// `(bulk-load [(into expr)] (roles r…) (row Name v…)…)`: batched
    /// assertion of tabular rows through the deferred-fixpoint bulk
    /// path ([`classic_kb::Kb::bulk_assert`]). Each row asserts
    /// `(AND into (FILLS r1 v1) … (FILLS rk vk))` about its target,
    /// with `_` marking a missing cell. Infallible per row: the
    /// outcome reports per-row accept/reject counts.
    BulkLoad(BulkSpec),
    /// `(lint-kb)` / `(lint-kb cone)`: run the static analyzer
    /// (`classic-analyze`) over the schema, rule base, and ABox.
    /// `cone` asks for only the diagnostics re-derived since the last
    /// lint (the dirty cone); against a stateless evaluator the first
    /// cone is the full report.
    LintKb {
        /// Report only the dirty-cone diagnostics instead of the full set.
        cone: bool,
    },
}

impl Command {
    /// Whether evaluating this command can change the knowledge base.
    /// The server routes mutating commands through the durable write
    /// path and everything else against a pinned read snapshot.
    /// (`what-if?` mutates transiently but always rolls back, so it
    /// counts as read-only; `obs-reset`/`obs-level` touch only
    /// observability state.)
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Command::DefineRole(_)
                | Command::DefineAttribute(_)
                | Command::DefineConcept(..)
                | Command::CreateInd(_)
                | Command::AssertInd(..)
                | Command::AssertRule(..)
                | Command::RetractInd(..)
                | Command::RetractRule(..)
                | Command::RetractRuleById(_)
                | Command::BulkLoad(_)
        )
    }

    /// The command's surface-language operator name — the request-kind
    /// attribute the server stamps on traces and slowlog entries.
    pub fn kind(&self) -> &'static str {
        match self {
            Command::DefineRole(_) => "define-role",
            Command::DefineAttribute(_) => "define-attribute",
            Command::DefineConcept(..) => "define-concept",
            Command::CreateInd(_) => "create-ind",
            Command::AssertInd(..) => "assert-ind",
            Command::AssertRule(..) => "assert-rule",
            Command::RetractInd(..) => "retract-ind",
            Command::RetractRule(..) | Command::RetractRuleById(_) => "retract-rule",
            Command::ListRules => "list-rules",
            Command::ObsStats { .. } => "obs-stats",
            Command::ObsTrace(_) => "obs-trace",
            Command::ObsReset => "obs-reset",
            Command::ObsLevel(_) => "obs-level",
            Command::ObsSample(_) => "obs-sample",
            Command::ObsSlowlog(_) => "obs-slowlog",
            Command::Provenance(_) => "provenance",
            Command::Retrieve(_) => "retrieve",
            Command::Possible(_) => "possible",
            Command::AskNecessarySet(_) => "ask-necessary-set",
            Command::AskDescription(_) => "ask-description",
            Command::Subsumes(..) => "subsumes?",
            Command::Equivalent(..) => "equivalent?",
            Command::Disjoint(..) => "disjoint?",
            Command::ConceptAspect(..) => "concept-aspect",
            Command::IndAspect(..) => "ind-aspect",
            Command::Describe(_) => "describe",
            Command::Parents(_) => "parents",
            Command::Children(_) => "children",
            Command::Classify(_) => "classify",
            Command::Why(..) => "why?",
            Command::WhatIf(..) => "what-if?",
            Command::BulkLoad(_) => "bulk-load",
            Command::LintKb { .. } => "lint-kb",
        }
    }
}

/// The payload of a `(bulk-load …)` form: an optional concept every row
/// is typed with, a role header, and the rows themselves. Parsed purely
/// (names still strings); resolution happens at [`eval`] time.
///
/// Surface grammar (see `docs/INGEST.md` §"The (bulk-load …) form"):
///
/// ```text
/// (bulk-load
///   (into EXPR)            ; optional — conjoined onto every row
///   (roles r1 … rk)        ; the column header
///   (row Name v1 … vk)     ; one per row; k values each
///   …)
/// ```
///
/// Values are individual literals — a bare symbol is a CLASSIC
/// individual reference, `42`/`1.5`/`"s"`/`'sym` are host values — and
/// the reserved symbol `_` marks a missing cell (no `FILLS` emitted).
#[derive(Debug, Clone, PartialEq)]
pub struct BulkSpec {
    /// Concept expression conjoined onto every row's description.
    pub into: Option<Expr>,
    /// Role names, one per value column.
    pub roles: Vec<String>,
    /// The rows, in submission order.
    pub rows: Vec<BulkRowSpec>,
}

/// One `(row Name v1 … vk)` of a [`BulkSpec`]: the target individual
/// and one optional value per role column (`None` = the `_` cell).
#[derive(Debug, Clone, PartialEq)]
pub struct BulkRowSpec {
    /// Target individual name.
    pub name: String,
    /// Cell values, index-aligned with [`BulkSpec::roles`].
    pub values: Vec<Option<IndLit>>,
}

/// One structured static-analysis finding, mirroring
/// [`classic_analyze::Diagnostic`] as plain serializable data (the span is
/// pre-rendered to a subject string; code and severity stay structured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Stable code, `A001`…`A008`.
    pub code: String,
    /// Severity of the finding.
    pub severity: classic_analyze::Severity,
    /// The schema object the finding points at (`concept BAD`,
    /// `rule #2 (on STUDENT)`, `schema`).
    pub subject: String,
    /// One-line human description.
    pub message: String,
    /// Explain-style derivation of *why*.
    pub provenance: Vec<String>,
}

/// A static-analysis report as data (`lint-kb`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Findings, ordered by severity then code.
    pub diagnostics: Vec<LintDiagnostic>,
    /// How many defined concepts were checked.
    pub concepts_checked: usize,
    /// How many rules were checked.
    pub rules_checked: usize,
    /// How many individuals were checked (for a cone report: re-linted).
    pub inds_checked: usize,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(classic_analyze::Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(classic_analyze::Severity::Warning)
    }

    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: classic_analyze::Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// The cone form: just the diagnostics one incremental refresh
    /// re-derived, with `inds_checked` reporting how many individuals
    /// were actually re-linted (concept/rule totals are not re-counted).
    pub fn from_refresh(refresh: &classic_analyze::Refresh) -> LintReport {
        LintReport {
            diagnostics: refresh.cone.iter().map(LintDiagnostic::from).collect(),
            concepts_checked: 0,
            rules_checked: 0,
            inds_checked: refresh.relinted,
        }
    }
}

impl From<&classic_analyze::Diagnostic> for LintDiagnostic {
    fn from(d: &classic_analyze::Diagnostic) -> LintDiagnostic {
        LintDiagnostic {
            code: d.code.as_str().to_owned(),
            severity: d.severity,
            subject: d.span.to_string(),
            message: d.message.clone(),
            provenance: d.provenance.clone(),
        }
    }
}

impl From<&classic_analyze::Report> for LintReport {
    fn from(report: &classic_analyze::Report) -> LintReport {
        LintReport {
            diagnostics: report
                .diagnostics
                .iter()
                .map(LintDiagnostic::from)
                .collect(),
            concepts_checked: report.concepts_checked,
            rules_checked: report.rules_checked,
            inds_checked: report.inds_checked,
        }
    }
}

/// A structured aspect answer (`concept-aspect` / `ind-aspect`),
/// mirroring [`classic_core::aspect::Aspect`] with individuals rendered
/// to names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AspectValue {
    /// The aspect is absent.
    None,
    /// A numeric bound (`AT-LEAST`/`AT-MOST`).
    Bound(u32),
    /// Whether the role is closed.
    Closed(bool),
    /// An enumeration or filler set, by name/host value.
    Values(Vec<String>),
    /// A value restriction, rendered in the surface syntax.
    Restriction(String),
}

/// The result of evaluating one command: data first, rendering second.
/// [`Outcome::render_text`] is the human form (REPL, CLI);
/// [`Outcome::render_json`] is the wire form (`classic-server`). Both are
/// total over every variant, so the two surfaces can never drift.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Nothing to report (DDL, create).
    Ok,
    /// An accepted rule, with the id `retract-rule` takes back.
    RuleAsserted(usize),
    /// An accepted assertion, with its propagation report.
    Asserted(AssertReport),
    /// An accepted retraction, with its re-derivation report.
    Retracted(RetractReport),
    /// A list of individual names / host values.
    Individuals(Vec<String>),
    /// A yes/no answer.
    Bool(bool),
    /// A description rendered in the surface syntax.
    Description(String),
    /// A list of concept names.
    Concepts(Vec<String>),
    /// A structured aspect value.
    Aspect(AspectValue),
    /// A static-analysis report (`lint-kb`).
    Lint(LintReport),
    /// A completed `bulk-load`, with its per-row accounting.
    BulkLoaded(BulkReport),
}

impl Outcome {
    /// Render for a human: the REPL/CLI form. Multi-valued outcomes
    /// render one item per line; engine reports render as `; `-prefixed
    /// summaries matching the historical REPL output.
    pub fn render_text(&self) -> String {
        match self {
            Outcome::Ok => "; ok".to_owned(),
            Outcome::RuleAsserted(ix) => {
                format!("; rule #{ix} asserted (retract with (retract-rule {ix}))")
            }
            Outcome::Asserted(r) => format!(
                "; accepted (steps={} fills={} corefs={} rules={} reclassified={})",
                r.steps, r.fills_propagated, r.corefs_derived, r.rules_fired, r.reclassified
            ),
            Outcome::Retracted(r) => format!(
                "; retracted (reset={} requeued={} steps={} reclassified={})",
                r.reset, r.requeued, r.steps, r.reclassified
            ),
            Outcome::Individuals(names) => {
                if names.is_empty() {
                    "; no known answers".to_owned()
                } else {
                    names.join("\n")
                }
            }
            Outcome::Bool(b) => b.to_string(),
            Outcome::Description(d) => d.clone(),
            Outcome::Concepts(names) => names.join("\n"),
            Outcome::Aspect(a) => match a {
                AspectValue::None => "none".to_owned(),
                AspectValue::Bound(n) => n.to_string(),
                AspectValue::Closed(b) => b.to_string(),
                AspectValue::Values(v) => format!("({})", v.join(" ")),
                AspectValue::Restriction(c) => c.clone(),
            },
            Outcome::Lint(report) => {
                let mut out = String::new();
                for d in &report.diagnostics {
                    out.push_str(&format!(
                        "{} {}: {}: {}\n",
                        d.code,
                        d.severity.as_str(),
                        d.subject,
                        d.message
                    ));
                    for p in &d.provenance {
                        out.push_str(&format!("    {p}\n"));
                    }
                }
                out.push_str(&format!(
                    "{} error(s), {} warning(s); {} concept(s), {} rule(s), {} individual(s) checked",
                    report.errors(),
                    report.warnings(),
                    report.concepts_checked,
                    report.rules_checked,
                    report.inds_checked,
                ));
                out
            }
            Outcome::BulkLoaded(r) => {
                let mut out = format!(
                    "; bulk-loaded (rows={} accepted={} rejected={} created={} chunks={} fallbacks={})",
                    r.rows, r.accepted, r.rejected, r.inds_created, r.chunks, r.sequential_fallbacks
                );
                for rej in &r.rejections {
                    out.push_str(&format!(
                        "\n;   row {} ({}): {}",
                        rej.row, rej.name, rej.error
                    ));
                }
                out
            }
        }
    }

    /// Render as a single-line JSON object: `{"type": …, …}`. This is the
    /// wire form the server sends; the REPL's `render_text` reads the
    /// same data, so protocol and shell can never disagree about what an
    /// outcome *is*.
    pub fn render_json(&self) -> String {
        match self {
            Outcome::Ok => r#"{"type":"ok"}"#.to_owned(),
            Outcome::RuleAsserted(ix) => {
                format!(r#"{{"type":"rule-asserted","id":{ix}}}"#)
            }
            Outcome::Asserted(r) => format!(
                concat!(
                    r#"{{"type":"asserted","steps":{},"fills":{},"corefs":{},"#,
                    r#""rules":{},"reclassified":{},"created":{}}}"#
                ),
                r.steps,
                r.fills_propagated,
                r.corefs_derived,
                r.rules_fired,
                r.reclassified,
                r.inds_created
            ),
            Outcome::Retracted(r) => format!(
                r#"{{"type":"retracted","reset":{},"requeued":{},"steps":{},"reclassified":{}}}"#,
                r.reset, r.requeued, r.steps, r.reclassified
            ),
            Outcome::Individuals(names) => {
                format!(r#"{{"type":"individuals","names":{}}}"#, json_array(names))
            }
            Outcome::Bool(b) => format!(r#"{{"type":"bool","value":{b}}}"#),
            Outcome::Description(d) => {
                format!(r#"{{"type":"description","text":{}}}"#, json_string(d))
            }
            Outcome::Concepts(names) => {
                format!(r#"{{"type":"concepts","names":{}}}"#, json_array(names))
            }
            Outcome::Aspect(a) => {
                let value = match a {
                    AspectValue::None => r#"{"kind":"none"}"#.to_owned(),
                    AspectValue::Bound(n) => format!(r#"{{"kind":"bound","n":{n}}}"#),
                    AspectValue::Closed(b) => {
                        format!(r#"{{"kind":"closed","value":{b}}}"#)
                    }
                    AspectValue::Values(v) => {
                        format!(r#"{{"kind":"values","values":{}}}"#, json_array(v))
                    }
                    AspectValue::Restriction(c) => {
                        format!(r#"{{"kind":"restriction","concept":{}}}"#, json_string(c))
                    }
                };
                format!(r#"{{"type":"aspect","value":{value}}}"#)
            }
            Outcome::Lint(report) => {
                let diags: Vec<String> = report
                    .diagnostics
                    .iter()
                    .map(|d| {
                        format!(
                            concat!(
                                r#"{{"code":{},"severity":{},"subject":{},"#,
                                r#""message":{},"provenance":{}}}"#
                            ),
                            json_string(&d.code),
                            json_string(d.severity.as_str()),
                            json_string(&d.subject),
                            json_string(&d.message),
                            json_array(&d.provenance),
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        r#"{{"type":"lint","errors":{},"warnings":{},"concepts_checked":{},"#,
                        r#""rules_checked":{},"inds_checked":{},"diagnostics":[{}]}}"#
                    ),
                    report.errors(),
                    report.warnings(),
                    report.concepts_checked,
                    report.rules_checked,
                    report.inds_checked,
                    diags.join(",")
                )
            }
            Outcome::BulkLoaded(r) => {
                let rejections: Vec<String> = r
                    .rejections
                    .iter()
                    .map(|rej| {
                        format!(
                            r#"{{"row":{},"name":{},"error":{}}}"#,
                            rej.row,
                            json_string(&rej.name),
                            json_string(&rej.error)
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        r#"{{"type":"bulk-loaded","rows":{},"accepted":{},"rejected":{},"#,
                        r#""created":{},"steps":{},"rules":{},"reclassified":{},"chunks":{},"#,
                        r#""fallbacks":{},"rejections":[{}]}}"#
                    ),
                    r.rows,
                    r.accepted,
                    r.rejected,
                    r.inds_created,
                    r.steps,
                    r.rules_fired,
                    r.reclassified,
                    r.chunks,
                    r.sequential_fallbacks,
                    rejections.join(",")
                )
            }
        }
    }
}

fn json_array(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", parts.join(","))
}

/// Split an input string into top-level s-expressions and parse each as a
/// command. **Pure**: no KB, schema, or symbol table is consulted — names
/// stay symbols in the produced [`Command`]s and are resolved by [`eval`].
/// Used by the REPL, the persistence log reader, and the server front.
///
/// ```
/// use classic_kb::Kb;
/// use classic_lang::{eval, parse, Outcome};
///
/// // Parsing touches no KB: an undefined role is fine here…
/// let cmds = parse("(define-role child) (assert-ind Mary (AT-LEAST 2 child))")?;
/// assert_eq!(cmds.len(), 2);
///
/// // …and is only resolved when each command meets a KB in `eval`.
/// let mut kb = Kb::new();
/// kb.create_ind("Mary")?;
/// for cmd in &cmds {
///     assert!(matches!(eval(&mut kb, cmd)?, Outcome::Ok | Outcome::Asserted(_)));
/// }
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
pub fn parse(input: &str) -> Result<Vec<Command>> {
    let tokens = tokenize(input)?;
    split_forms(&tokens)?
        .into_iter()
        .map(parse_command_tokens)
        .collect()
}

/// Parse exactly one command from text. Pure, like [`parse`].
pub fn parse_one(input: &str) -> Result<Command> {
    let mut cmds = parse(input)?;
    match cmds.len() {
        1 => Ok(cmds.pop().expect("one command")),
        n => Err(ClassicError::Malformed(format!(
            "expected exactly one command, found {n}"
        ))),
    }
}

/// Parse one command from a balanced token window. Pure.
pub(crate) fn parse_command_tokens(tokens: &[Token]) -> Result<Command> {
    let mut w = TokenWindow { tokens, ix: 0 };
    w.expect(&TokenKind::LParen)?;
    let op = w.symbol()?;
    let cmd = match op.as_str() {
        "define-role" => Command::DefineRole(w.symbol()?),
        "define-attribute" => Command::DefineAttribute(w.symbol()?),
        "define-concept" => {
            let name = w.symbol()?;
            let c = w.concept()?;
            Command::DefineConcept(name, c)
        }
        "create-ind" => Command::CreateInd(w.symbol()?),
        "assert-ind" => {
            let name = w.symbol()?;
            let c = w.concept()?;
            Command::AssertInd(name, c)
        }
        "assert-rule" => {
            let name = w.symbol()?;
            let c = w.concept()?;
            Command::AssertRule(name, c)
        }
        "retract-ind" => {
            let name = w.symbol()?;
            let c = w.concept()?;
            Command::RetractInd(name, c)
        }
        "retract-rule" => match w.optional_int() {
            Some(ix) if ix >= 0 => Command::RetractRuleById(ix as usize),
            Some(ix) => {
                return Err(ClassicError::Malformed(format!(
                    "rule ids are non-negative, got {ix}"
                )))
            }
            None => {
                let name = w.symbol()?;
                let c = w.concept()?;
                Command::RetractRule(name, c)
            }
        },
        "list-rules" => Command::ListRules,
        "obs-stats" => Command::ObsStats {
            json: matches!(w.optional_symbol().as_deref(), Some("json")),
        },
        "obs-trace" => Command::ObsTrace(w.symbol()?),
        "obs-reset" => Command::ObsReset,
        "obs-level" => Command::ObsLevel(w.optional_symbol()),
        "obs-sample" => Command::ObsSample(w.optional_number()),
        "obs-slowlog" => match w.optional_int() {
            Some(n) if n >= 0 => Command::ObsSlowlog(Some(n as usize)),
            Some(n) => {
                return Err(ClassicError::Malformed(format!(
                    "obs-slowlog count is non-negative, got {n}"
                )))
            }
            None => Command::ObsSlowlog(None),
        },
        "provenance" => Command::Provenance(w.symbol()?),
        "retrieve" | "instances" => {
            let q = w.query()?;
            Command::Retrieve(q)
        }
        "possible" => Command::Possible(w.concept()?),
        "ask-necessary-set" => Command::AskNecessarySet(w.query()?),
        "ask-description" => Command::AskDescription(w.query()?),
        "subsumes?" => {
            let a = w.concept()?;
            let b = w.concept()?;
            Command::Subsumes(a, b)
        }
        "equivalent?" => {
            let a = w.concept()?;
            let b = w.concept()?;
            Command::Equivalent(a, b)
        }
        "disjoint?" => {
            let a = w.concept()?;
            let b = w.concept()?;
            Command::Disjoint(a, b)
        }
        "concept-aspect" => {
            let name = w.symbol()?;
            let kind = w.aspect_kind()?;
            let role = w.optional_symbol();
            Command::ConceptAspect(name, kind, role)
        }
        "ind-aspect" => {
            let name = w.symbol()?;
            let kind = w.aspect_kind()?;
            let role = w.optional_symbol();
            Command::IndAspect(name, kind, role)
        }
        "describe" => Command::Describe(w.symbol()?),
        "classify" => Command::Classify(w.concept()?),
        "why?" => {
            let ind = w.symbol()?;
            let concept = w.symbol()?;
            Command::Why(ind, concept)
        }
        "what-if?" => {
            let ind = w.symbol()?;
            let c = w.concept()?;
            Command::WhatIf(ind, c)
        }
        "parents" => Command::Parents(w.symbol()?),
        "children" => Command::Children(w.symbol()?),
        "bulk-load" => Command::BulkLoad(w.bulk_spec()?),
        "lint-kb" => match w.optional_symbol() {
            None => Command::LintKb { cone: false },
            Some(arg) if arg == "cone" => Command::LintKb { cone: true },
            Some(arg) => {
                return Err(ClassicError::Malformed(format!(
                    "lint-kb takes no argument or `cone`, got {arg:?}"
                )))
            }
        },
        other => {
            return Err(ClassicError::Malformed(format!(
                "unknown operator {other:?}"
            )))
        }
    };
    w.expect(&TokenKind::RParen)?;
    w.expect_end()?;
    Ok(cmd)
}

/// Minimal cursor over a token window, delegating concept parsing to the
/// pure [`Parser`] over the sub-span.
struct TokenWindow<'a> {
    tokens: &'a [Token],
    ix: usize,
}

impl TokenWindow<'_> {
    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        match self.tokens.get(self.ix) {
            Some(t) if t.kind == *kind => {
                self.ix += 1;
                Ok(())
            }
            Some(t) => Err(ClassicError::Malformed(format!(
                "{}: expected {kind:?}, found {:?}",
                t.pos, t.kind
            ))),
            None => Err(ClassicError::Malformed("unexpected end of command".into())),
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        if self.ix == self.tokens.len() {
            Ok(())
        } else {
            Err(ClassicError::Malformed(
                "trailing tokens after command".into(),
            ))
        }
    }

    fn symbol(&mut self) -> Result<String> {
        match self.tokens.get(self.ix) {
            Some(Token {
                kind: TokenKind::Symbol(s),
                ..
            }) => {
                self.ix += 1;
                Ok(s.clone())
            }
            Some(t) => Err(ClassicError::Malformed(format!(
                "{}: expected a name, found {:?}",
                t.pos, t.kind
            ))),
            None => Err(ClassicError::Malformed("unexpected end of command".into())),
        }
    }

    fn optional_int(&mut self) -> Option<i64> {
        match self.tokens.get(self.ix) {
            Some(Token {
                kind: TokenKind::Int(i),
                ..
            }) => {
                self.ix += 1;
                Some(*i)
            }
            _ => None,
        }
    }

    /// An optional numeric literal (int or float), consumed if present.
    fn optional_number(&mut self) -> Option<f64> {
        match self.tokens.get(self.ix) {
            Some(Token {
                kind: TokenKind::Int(i),
                ..
            }) => {
                self.ix += 1;
                Some(*i as f64)
            }
            Some(Token {
                kind: TokenKind::Float(f),
                ..
            }) => {
                self.ix += 1;
                Some(f.0)
            }
            _ => None,
        }
    }

    fn optional_symbol(&mut self) -> Option<String> {
        match self.tokens.get(self.ix) {
            Some(Token {
                kind: TokenKind::Symbol(s),
                ..
            }) => {
                self.ix += 1;
                Some(s.clone())
            }
            _ => None,
        }
    }

    fn aspect_kind(&mut self) -> Result<AspectKind> {
        let s = self.symbol()?;
        Ok(match s.as_str() {
            "ONE-OF" => AspectKind::OneOf,
            "ALL" => AspectKind::All,
            "AT-LEAST" => AspectKind::AtLeast,
            "AT-MOST" => AspectKind::AtMost,
            "FILLS" => AspectKind::Fills,
            "CLOSE" => AspectKind::Close,
            other => {
                return Err(ClassicError::Malformed(format!(
                    "unknown aspect kind {other:?}"
                )))
            }
        })
    }

    /// The span of the next complete expression (symbol or balanced
    /// parenthesis group, with optional leading marker).
    fn expression_span(&self) -> Result<(usize, usize)> {
        let mut ix = self.ix;
        if matches!(
            self.tokens.get(ix),
            Some(Token {
                kind: TokenKind::Marker,
                ..
            })
        ) {
            ix += 1;
        }
        match self.tokens.get(ix) {
            Some(Token {
                kind: TokenKind::LParen,
                ..
            }) => {
                let mut depth = 0usize;
                let mut end = ix;
                for (off, t) in self.tokens[ix..].iter().enumerate() {
                    match t.kind {
                        TokenKind::LParen => depth += 1,
                        TokenKind::RParen => {
                            depth -= 1;
                            if depth == 0 {
                                end = ix + off;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if depth != 0 && end == ix {
                    return Err(ClassicError::Malformed("unbalanced expression".into()));
                }
                Ok((self.ix, end + 1))
            }
            Some(_) => Ok((self.ix, ix + 1)),
            None => Err(ClassicError::Malformed("expected an expression".into())),
        }
    }

    fn concept(&mut self) -> Result<Expr> {
        let span = self.expression_span()?;
        let window = self.tokens[span.0..span.1].to_vec();
        self.ix = span.1;
        Parser::expr_from_tokens(window)
    }

    fn query(&mut self) -> Result<QueryExpr> {
        let span = self.expression_span()?;
        let window = self.tokens[span.0..span.1].to_vec();
        self.ix = span.1;
        Parser::query_from_tokens(window)
    }

    fn at_rparen(&self) -> bool {
        matches!(
            self.tokens.get(self.ix),
            Some(Token {
                kind: TokenKind::RParen,
                ..
            })
        )
    }

    /// One `bulk-load` cell: an individual literal, or `_` for missing.
    fn bulk_value(&mut self) -> Result<Option<IndLit>> {
        let lit = match self.tokens.get(self.ix) {
            Some(Token {
                kind: TokenKind::Symbol(s),
                ..
            }) if s == "_" => None,
            Some(Token {
                kind: TokenKind::Symbol(s),
                ..
            }) => Some(IndLit::Name(s.clone())),
            Some(Token {
                kind: TokenKind::Int(i),
                ..
            }) => Some(IndLit::Int(*i)),
            Some(Token {
                kind: TokenKind::Float(v),
                ..
            }) => Some(IndLit::Float(*v)),
            Some(Token {
                kind: TokenKind::Str(s),
                ..
            }) => Some(IndLit::Str(s.clone())),
            Some(Token {
                kind: TokenKind::QuotedSym(s),
                ..
            }) => Some(IndLit::Sym(s.clone())),
            Some(t) => {
                return Err(ClassicError::Malformed(format!(
                    "{}: expected a row value (name, literal, or `_`), found {:?}",
                    t.pos, t.kind
                )))
            }
            None => return Err(ClassicError::Malformed("unexpected end of row".into())),
        };
        self.ix += 1;
        Ok(lit)
    }

    /// The body of a `(bulk-load …)` form: optional `(into expr)`, one
    /// `(roles …)` header, then `(row …)` forms whose arity must match
    /// the header (ragged rows are parse errors).
    fn bulk_spec(&mut self) -> Result<BulkSpec> {
        let mut into = None;
        let mut roles: Option<Vec<String>> = None;
        let mut rows = Vec::new();
        while !self.at_rparen() {
            self.expect(&TokenKind::LParen)?;
            match self.symbol()?.as_str() {
                "into" => {
                    if into.is_some() {
                        return Err(ClassicError::Malformed(
                            "bulk-load: duplicate (into …) clause".into(),
                        ));
                    }
                    if roles.is_some() || !rows.is_empty() {
                        return Err(ClassicError::Malformed(
                            "bulk-load: (into …) must precede (roles …) and rows".into(),
                        ));
                    }
                    into = Some(self.concept()?);
                }
                "roles" => {
                    if roles.is_some() {
                        return Err(ClassicError::Malformed(
                            "bulk-load: duplicate (roles …) header".into(),
                        ));
                    }
                    let mut header = Vec::new();
                    while !self.at_rparen() {
                        header.push(self.symbol()?);
                    }
                    roles = Some(header);
                }
                "row" => {
                    let arity = match &roles {
                        Some(r) => r.len(),
                        None => {
                            return Err(ClassicError::Malformed(
                                "bulk-load: (roles …) header must precede rows".into(),
                            ))
                        }
                    };
                    let name = self.symbol()?;
                    let mut values = Vec::with_capacity(arity);
                    while !self.at_rparen() {
                        values.push(self.bulk_value()?);
                    }
                    if values.len() != arity {
                        return Err(ClassicError::Malformed(format!(
                            "bulk-load: ragged row {:?} has {} value(s), header has {} role(s)",
                            name,
                            values.len(),
                            arity
                        )));
                    }
                    rows.push(BulkRowSpec { name, values });
                }
                other => {
                    return Err(ClassicError::Malformed(format!(
                        "bulk-load: expected (into …), (roles …), or (row …), got {other:?}"
                    )))
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(BulkSpec {
            into,
            roles: roles.unwrap_or_default(),
            rows,
        })
    }
}

/// Resolve a [`BulkSpec`] into KB-level [`classic_kb::BulkRow`]s: the
/// `into` concept (if any) conjoined with one `FILLS` per non-missing
/// cell. Shared by [`eval`] and the durable store's bulk path (which
/// re-renders accepted rows into its log).
pub fn resolve_bulk_rows(kb: &mut Kb, spec: &BulkSpec) -> Result<Vec<classic_kb::BulkRow>> {
    let into = spec.into.as_ref().map(|e| e.resolve(kb)).transpose()?;
    let roles: Vec<classic_core::RoleId> = spec
        .roles
        .iter()
        .map(|r| {
            kb.schema()
                .symbols
                .find_role(r)
                .ok_or_else(|| unknown_role(kb, r))
        })
        .collect::<Result<_>>()?;
    spec.rows
        .iter()
        .map(|row| {
            let mut parts = Vec::new();
            if let Some(c) = &into {
                parts.push(c.clone());
            }
            for (value, &role) in row.values.iter().zip(&roles) {
                if let Some(lit) = value {
                    parts.push(classic_core::Concept::Fills(role, vec![lit.resolve(kb)]));
                }
            }
            Ok(classic_kb::BulkRow {
                name: row.name.clone(),
                desc: classic_core::Concept::and(parts),
            })
        })
        .collect()
}

/// `unknown concept NAME` with a nearest-match suggestion when some
/// defined name is within typo distance.
fn unknown_concept(kb: &Kb, name: &str) -> ClassicError {
    ClassicError::Malformed(suggest(
        format!("unknown concept {name:?}"),
        classic_kb::nearest_match(name, kb.schema().symbols.concepts().map(|(_, n)| n)),
    ))
}

fn unknown_individual(kb: &Kb, name: &str) -> ClassicError {
    ClassicError::Malformed(suggest(
        format!("unknown individual {name:?}"),
        classic_kb::nearest_match(name, kb.schema().symbols.individuals().map(|(_, n)| n)),
    ))
}

fn unknown_role(kb: &Kb, name: &str) -> ClassicError {
    ClassicError::Malformed(suggest(
        format!("unknown role {name:?}"),
        classic_kb::nearest_match(name, kb.schema().symbols.roles().map(|(_, n)| n)),
    ))
}

fn suggest(mut msg: String, near: Option<&str>) -> String {
    if let Some(n) = near {
        msg.push_str(&format!(" — did you mean {n:?}?"));
    }
    msg
}

/// Evaluate a parsed command against a knowledge base, resolving names
/// against its schema first.
pub fn eval(kb: &mut Kb, cmd: &Command) -> Result<Outcome> {
    match cmd {
        Command::DefineRole(name) => {
            kb.define_role(name)?;
            Ok(Outcome::Ok)
        }
        Command::DefineAttribute(name) => {
            kb.define_attribute(name)?;
            Ok(Outcome::Ok)
        }
        Command::DefineConcept(name, c) => {
            let c = c.resolve(kb)?;
            kb.define_concept(name, c)?;
            Ok(Outcome::Ok)
        }
        Command::CreateInd(name) => {
            kb.create_ind(name)?;
            Ok(Outcome::Ok)
        }
        Command::AssertInd(name, c) => {
            let c = c.resolve(kb)?;
            let report = kb.assert_ind(name, &c)?;
            Ok(Outcome::Asserted(report))
        }
        Command::AssertRule(name, c) => {
            let c = c.resolve(kb)?;
            let ix = kb.assert_rule(name, c)?;
            Ok(Outcome::RuleAsserted(ix))
        }
        Command::RetractInd(name, c) => {
            let c = c.resolve(kb)?;
            let report = kb.retract_ind(name, &c)?;
            Ok(Outcome::Retracted(report))
        }
        Command::RetractRule(name, c) => {
            let c = c.resolve(kb)?;
            let report = kb.retract_rule(name, &c)?;
            Ok(Outcome::Retracted(report))
        }
        Command::RetractRuleById(ix) => {
            let report = kb.retract_rule_by_id(*ix)?;
            Ok(Outcome::Retracted(report))
        }
        Command::ListRules => {
            let symbols = &kb.schema().symbols;
            let lines: Vec<String> = kb
                .active_rules()
                .map(|(ix, r)| {
                    format!(
                        "#{ix}: {} => {}",
                        symbols.concept_name(r.antecedent),
                        r.consequent.display(symbols)
                    )
                })
                .collect();
            if lines.is_empty() {
                Ok(Outcome::Description("no live rules".into()))
            } else {
                Ok(Outcome::Description(lines.join("\n")))
            }
        }
        Command::ObsStats { json } => {
            let snap = kb.metrics().snapshot();
            Ok(Outcome::Description(if *json {
                classic_obs::render_json(&snap)
            } else {
                classic_obs::render_prometheus(&snap)
            }))
        }
        Command::ObsTrace(op) => {
            let recorder = kb.flight_recorder();
            if op == "*" {
                let mut lines: Vec<String> = recorder
                    .ops()
                    .into_iter()
                    .map(|(name, n)| format!("{name}: {n} trace(s) retained"))
                    .collect();
                lines.sort();
                return Ok(Outcome::Description(if lines.is_empty() {
                    no_traces_hint()
                } else {
                    lines.join("\n")
                }));
            }
            let traces = recorder.traces_for(op);
            if traces.is_empty() {
                return Ok(Outcome::Description(no_traces_hint()));
            }
            Ok(Outcome::Description(
                traces
                    .iter()
                    .map(|t| t.render())
                    .collect::<Vec<_>>()
                    .join("\n"),
            ))
        }
        Command::ObsReset => {
            kb.metrics().reset();
            kb.flight_recorder().clear();
            Ok(Outcome::Ok)
        }
        Command::ObsLevel(level) => {
            use classic_obs::ObsLevel;
            match level.as_deref() {
                None => {}
                Some("off") => {
                    classic_obs::set_level(ObsLevel::Off);
                }
                Some("counters") => {
                    classic_obs::set_level(ObsLevel::Counters);
                }
                Some("full") => {
                    classic_obs::set_level(ObsLevel::Full);
                }
                Some(other) => {
                    return Err(ClassicError::Malformed(format!(
                        "unknown obs level {other:?} (off, counters, full)"
                    )))
                }
            }
            Ok(Outcome::Description(format!(
                "obs level: {:?}",
                classic_obs::level()
            )))
        }
        Command::ObsSample(rate) => {
            if let Some(r) = rate {
                if !(0.0..=1.0).contains(r) {
                    return Err(ClassicError::Malformed(format!(
                        "sample rate must be in [0, 1], got {r}"
                    )));
                }
                classic_obs::set_sample_rate(*r);
            }
            Ok(Outcome::Description(format!(
                "obs sample rate: {}",
                classic_obs::sample_rate()
            )))
        }
        Command::ObsSlowlog(n) => Ok(Outcome::Description(
            classic_obs::global_slowlog()
                .render_text(n.unwrap_or(10))
                .trim_end()
                .to_string(),
        )),
        Command::Provenance(name) => {
            let iname = kb
                .schema()
                .symbols
                .find_individual(name)
                .ok_or_else(|| unknown_individual(kb, name))?;
            let id = kb.ind_id(iname)?;
            let lines = kb.explain_provenance(id);
            if lines.is_empty() {
                Ok(Outcome::Description(format!(
                    "{name}: no recorded derivations (identity only)"
                )))
            } else {
                Ok(Outcome::Description(lines.join("\n")))
            }
        }
        Command::Retrieve(q) => {
            let q = q.resolve(kb)?;
            if q.marker.is_empty() {
                let ans = Query::concept(q.concept)
                    .run(kb)?
                    .into_known()
                    .expect("a Known query yields Answer::Known");
                Ok(Outcome::Individuals(
                    ans.known
                        .into_iter()
                        .map(|id| {
                            kb.schema()
                                .symbols
                                .individual_name(kb.ind(id).name)
                                .to_owned()
                        })
                        .collect(),
                ))
            } else {
                let fillers = Query::marked(q)
                    .run(kb)?
                    .into_necessary_set()
                    .expect("a NecessarySet query yields Answer::NecessarySet");
                Ok(Outcome::Individuals(render_ind_refs(kb, &fillers)))
            }
        }
        Command::Possible(c) => {
            let c = c.resolve(kb)?;
            let ids = Query::concept(c)
                .possible()
                .run(kb)?
                .into_possible()
                .expect("a Possible query yields Answer::Possible");
            Ok(Outcome::Individuals(
                ids.into_iter()
                    .map(|id| {
                        kb.schema()
                            .symbols
                            .individual_name(kb.ind(id).name)
                            .to_owned()
                    })
                    .collect(),
            ))
        }
        Command::AskNecessarySet(q) => {
            let q = q.resolve(kb)?;
            let fillers = Query::marked(q)
                .run(kb)?
                .into_necessary_set()
                .expect("a NecessarySet query yields Answer::NecessarySet");
            Ok(Outcome::Individuals(render_ind_refs(kb, &fillers)))
        }
        Command::AskDescription(q) => {
            let q = q.resolve(kb)?;
            let nf = Query::marked(q)
                .description()
                .run(kb)?
                .into_description()
                .expect("a Description query yields Answer::Description");
            let c = nf.to_concept(kb.schema());
            Ok(Outcome::Description(
                c.display(&kb.schema().symbols).to_string(),
            ))
        }
        Command::Subsumes(a, b) => {
            let a = a.resolve(kb)?;
            let b = b.resolve(kb)?;
            let na = kb.normalize(&a)?;
            let nb = kb.normalize(&b)?;
            Ok(Outcome::Bool(classic_core::subsumes(&na, &nb)))
        }
        Command::Equivalent(a, b) => {
            let a = a.resolve(kb)?;
            let b = b.resolve(kb)?;
            let na = kb.normalize(&a)?;
            let nb = kb.normalize(&b)?;
            Ok(Outcome::Bool(classic_core::equivalent(&na, &nb)))
        }
        Command::Disjoint(a, b) => {
            let a = a.resolve(kb)?;
            let b = b.resolve(kb)?;
            let na = kb.normalize(&a)?;
            let nb = kb.normalize(&b)?;
            Ok(Outcome::Bool(classic_core::disjoint(&na, &nb, kb.schema())))
        }
        Command::ConceptAspect(name, kind, role) => {
            let cname = kb
                .schema()
                .symbols
                .find_concept(name)
                .ok_or_else(|| unknown_concept(kb, name))?;
            let role = resolve_role(kb, role.as_deref())?;
            let nf = kb.schema().concept_nf(cname)?;
            let aspect = classic_core::aspect::concept_aspect(nf, *kind, role);
            Ok(Outcome::Aspect(render_aspect(kb, &aspect)))
        }
        Command::IndAspect(name, kind, role) => {
            let iname = kb
                .schema()
                .symbols
                .find_individual(name)
                .ok_or_else(|| unknown_individual(kb, name))?;
            let id = kb.ind_id(iname)?;
            let role = resolve_role(kb, role.as_deref())?;
            let aspect = kb.ind_aspect(id, *kind, role);
            Ok(Outcome::Aspect(render_aspect(kb, &aspect)))
        }
        Command::Describe(name) => {
            let iname = kb
                .schema()
                .symbols
                .find_individual(name)
                .ok_or_else(|| unknown_individual(kb, name))?;
            let id = kb.ind_id(iname)?;
            let c = classic_query::describe(kb, id);
            Ok(Outcome::Description(
                c.display(&kb.schema().symbols).to_string(),
            ))
        }
        Command::Classify(c) => {
            let c = c.resolve(kb)?;
            let placement = kb.classify_concept(&c)?;
            let render = |kb: &Kb, names: &[classic_core::ConceptName]| -> Vec<String> {
                names
                    .iter()
                    .map(|&n| kb.schema().symbols.concept_name(n).to_owned())
                    .collect()
            };
            let mut lines = Vec::new();
            if !placement.equivalent.is_empty() {
                lines.push(format!(
                    "equivalent: {}",
                    render(kb, &placement.equivalent).join(" ")
                ));
            }
            lines.push(format!(
                "parents: {}",
                render(kb, &placement.parents).join(" ")
            ));
            lines.push(format!(
                "children: {}",
                render(kb, &placement.children).join(" ")
            ));
            Ok(Outcome::Description(lines.join("\n")))
        }
        Command::Why(ind_name, concept_name) => {
            let iname = kb
                .schema()
                .symbols
                .find_individual(ind_name)
                .ok_or_else(|| unknown_individual(kb, ind_name))?;
            let id = kb.ind_id(iname)?;
            let cname = kb
                .schema()
                .symbols
                .find_concept(concept_name)
                .ok_or_else(|| unknown_concept(kb, concept_name))?;
            let e = kb.explain_membership(id, cname)?;
            let verdict = if e.satisfied {
                format!("{ind_name} IS a {concept_name}:\n")
            } else {
                format!("{ind_name} is NOT provably a {concept_name}:\n")
            };
            Ok(Outcome::Description(format!("{verdict}{}", e.render())))
        }
        Command::WhatIf(name, c) => {
            let c = c.resolve(kb)?;
            match kb.what_if(name, &c) {
                Ok(report) => Ok(Outcome::Description(format!(
                    "would be ACCEPTED (steps={} fills={} corefs={} rules={} reclassified={}); nothing was changed",
                    report.steps,
                    report.fills_propagated,
                    report.corefs_derived,
                    report.rules_fired,
                    report.reclassified
                ))),
                Err(ClassicError::Inconsistent { reason, .. }) => Ok(Outcome::Description(
                    format!("would be REJECTED: {reason}; nothing was changed"),
                )),
                Err(other) => Err(other),
            }
        }
        Command::Parents(name) | Command::Children(name) => {
            let cname = kb
                .schema()
                .symbols
                .find_concept(name)
                .ok_or_else(|| unknown_concept(kb, name))?;
            let node = kb
                .taxonomy()
                .node_of(cname)
                .ok_or(ClassicError::UndefinedConcept(cname))?;
            let neighbors = if matches!(cmd, Command::Parents(_)) {
                &kb.taxonomy().node(node).parents
            } else {
                &kb.taxonomy().node(node).children
            };
            let mut names = Vec::new();
            for &n in neighbors {
                for &cn in &kb.taxonomy().node(n).names {
                    names.push(kb.schema().symbols.concept_name(cn).to_owned());
                }
                if n == classic_core::taxonomy::NodeId::TOP {
                    names.push("THING".to_owned());
                }
            }
            names.sort();
            names.dedup();
            Ok(Outcome::Concepts(names))
        }
        Command::BulkLoad(spec) => {
            let rows = resolve_bulk_rows(kb, spec)?;
            Ok(Outcome::BulkLoaded(kb.bulk_assert(&rows)))
        }
        Command::LintKb { .. } => {
            // One-shot evaluation holds no analysis state, so the full
            // report and the first cone coincide; `eval_monitored` (and
            // the server's per-tenant state) serve true cone deltas.
            let report = classic_analyze::analyze(kb);
            Ok(Outcome::Lint(LintReport::from(&report)))
        }
    }
}

/// Evaluate `cmd` while maintaining an incremental
/// [`classic_analyze::AnalysisState`] alongside the KB:
///
/// * `retract-ind` marks its analysis cone **before** evaluation (the
///   retraction removes the very dependency edges that define the cone);
/// * `assert-ind` marks its cone **after** evaluation (so fresh edges and
///   propagation targets are inside it);
/// * concept/rule changes and brand-new individuals are detected by the
///   state itself on the next refresh;
/// * `(lint-kb)` is answered from the state — refreshed in O(cone), full
///   report assembled from the caches; `(lint-kb cone)` returns only the
///   diagnostics the refresh re-derived, with `inds_checked` reporting
///   how many individuals were actually re-linted.
pub fn eval_monitored(
    kb: &mut Kb,
    cmd: &Command,
    state: &mut classic_analyze::AnalysisState,
) -> Result<Outcome> {
    if let Command::LintKb { cone } = cmd {
        let refresh = state.refresh(kb);
        return Ok(Outcome::Lint(if *cone {
            LintReport::from_refresh(&refresh)
        } else {
            LintReport::from(&state.report(kb))
        }));
    }
    if let Command::RetractInd(name, _) = cmd {
        mark_individual_dirty(kb, state, name);
    }
    let out = eval(kb, cmd)?;
    if let Command::AssertInd(name, _) = cmd {
        mark_individual_dirty(kb, state, name);
    }
    if let Command::BulkLoad(spec) = cmd {
        // Mark every row target (brand-new individuals are detected by
        // the state itself, but rows may extend pre-existing ones).
        let mut seen = std::collections::BTreeSet::new();
        for row in &spec.rows {
            if seen.insert(row.name.as_str()) {
                mark_individual_dirty(kb, state, &row.name);
            }
        }
    }
    Ok(out)
}

/// Mark the named individual's analysis cone dirty in `state`, if the
/// individual exists. Call *before* a retraction (the retraction removes
/// the dependency edges the cone is computed from) and *after* an
/// assertion (so fresh edges and propagation targets are inside it) —
/// [`eval_monitored`] does both; this is for callers that drive the KB
/// through another evaluation path (e.g. the server's durable log).
pub fn mark_individual_dirty(kb: &Kb, state: &mut classic_analyze::AnalysisState, name: &str) {
    if let Some(iname) = kb.schema().symbols.find_individual(name) {
        if let Ok(id) = kb.ind_id(iname) {
            state.mark_dirty(kb, &std::collections::BTreeSet::from([id]));
        }
    }
}

fn no_traces_hint() -> String {
    format!(
        "no traces retained (current obs level: {:?}; spans record at Full — try (obs-level full))",
        classic_obs::level()
    )
}

fn resolve_role(kb: &Kb, role: Option<&str>) -> Result<Option<classic_core::RoleId>> {
    match role {
        None => Ok(None),
        Some(r) => kb
            .schema()
            .symbols
            .find_role(r)
            .map(Some)
            .ok_or_else(|| unknown_role(kb, r)),
    }
}

fn render_ind_refs(kb: &Kb, refs: &[IndRef]) -> Vec<String> {
    refs.iter()
        .map(|r| match r {
            IndRef::Classic(n) => kb.schema().symbols.individual_name(*n).to_owned(),
            IndRef::Host(v) => v.to_string(),
        })
        .collect()
}

fn render_aspect(kb: &Kb, aspect: &classic_core::aspect::Aspect) -> AspectValue {
    use classic_core::aspect::Aspect;
    match aspect {
        Aspect::None => AspectValue::None,
        Aspect::Bound(n) => AspectValue::Bound(*n),
        Aspect::Closed(b) => AspectValue::Closed(*b),
        Aspect::Enumeration(v) | Aspect::Fillers(v) => AspectValue::Values(render_ind_refs(kb, v)),
        Aspect::ValueRestriction(nf) => AspectValue::Restriction(
            nf.to_concept(kb.schema())
                .display(&kb.schema().symbols)
                .to_string(),
        ),
    }
}

/// Parse then evaluate each command in `input`, returning all outcomes.
/// Macro-free; for scripts using `define-macro`, use [`Session`].
pub fn run_script(kb: &mut Kb, input: &str) -> Result<Vec<Outcome>> {
    let commands = parse(input)?;
    commands.iter().map(|c| eval(kb, c)).collect()
}

/// A stateful interpreter session: a knowledge base plus the macro table
/// of §2.1.4's anticipated "macro-definition facility". `define-macro`
/// forms register syntactic templates; every other command is
/// macro-expanded before parsing.
///
/// ```
/// use classic_lang::{Outcome, Session};
///
/// let mut s = Session::new();
/// let out = s.run(r#"
///     (define-macro EXACTLY-ONE (r) (AND (AT-LEAST 1 r) (AT-MOST 1 r)))
///     (define-role wheel)
///     (equivalent? (EXACTLY-ONE wheel)
///                  (AND (AT-LEAST 1 wheel) (AT-MOST 1 wheel)))
/// "#)?;
/// assert_eq!(out.last().unwrap(), &Outcome::Bool(true));
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
#[derive(Default)]
pub struct Session {
    /// The knowledge base the session operates on.
    pub kb: Kb,
    macros: crate::macros::MacroTable,
}

impl Session {
    /// A fresh session over an empty knowledge base.
    pub fn new() -> Session {
        Session::default()
    }

    /// A session over an existing knowledge base.
    pub fn with_kb(kb: Kb) -> Session {
        Session {
            kb,
            macros: crate::macros::MacroTable::new(),
        }
    }

    /// Names of the macros defined so far.
    pub fn macro_names(&self) -> Vec<&str> {
        self.macros.names().collect()
    }

    /// Run a script: `define-macro` forms extend the macro table, all
    /// other commands are expanded and evaluated in order.
    pub fn run(&mut self, input: &str) -> Result<Vec<Outcome>> {
        let tokens = tokenize(input)?;
        let mut outcomes = Vec::new();
        for form in split_forms(&tokens)? {
            let is_define_macro = matches!(
                form.get(1).map(|t| &t.kind),
                Some(TokenKind::Symbol(s)) if s == "define-macro"
            );
            if is_define_macro {
                self.macros.define_from_tokens(form)?;
                outcomes.push(Outcome::Ok);
                continue;
            }
            let expanded = self.macros.expand(form.to_vec())?;
            let cmd = parse_command_tokens(&expanded)?;
            outcomes.push(eval(&mut self.kb, &cmd)?);
        }
        Ok(outcomes)
    }
}

/// Split a token stream into top-level balanced forms.
fn split_forms(tokens: &[Token]) -> Result<Vec<&[Token]>> {
    let mut forms = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::LParen => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            TokenKind::RParen => {
                if depth == 0 {
                    return Err(ClassicError::Malformed(format!(
                        "{}: unbalanced ')'",
                        t.pos
                    )));
                }
                depth -= 1;
                if depth == 0 {
                    forms.push(&tokens[start..=i]);
                }
            }
            _ if depth == 0 => {
                return Err(ClassicError::Malformed(format!(
                    "{}: expected '(' to start a command",
                    t.pos
                )))
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(ClassicError::Malformed("unbalanced '('".into()));
    }
    Ok(forms)
}
