//! Seeded input generators. Every workload's inputs — DDL, preload
//! forms, per-client op streams and CSV bodies — come from here, from
//! the `--seed` alone, so the same seed always yields byte-identical
//! inputs and the server only ever sees the generated text.

use std::fmt::Write as _;

/// SplitMix64: tiny, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream. `stream` separates the streams
    /// drawn from one seed (preload, client 0, client 1, load k, …).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `pct`/100.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mixed,
    Cascade,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Mixed, Workload::Cascade, Workload::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "wire-mixed",
            Workload::Cascade => "wire-cascade",
            Workload::Ingest => "bulk-ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Client threads (and connections): the closed loop's, or the one
    /// HTTP connection of `bulk-ingest`.
    pub fn clients(self) -> usize {
        match self {
            Workload::Mixed | Workload::Cascade => 2,
            Workload::Ingest => 1,
        }
    }

    /// Preloaded functions of the software-IS shape.
    pub fn functions(self) -> usize {
        match self {
            Workload::Mixed => 2_000,
            Workload::Cascade => 8_000,
            Workload::Ingest => 0,
        }
    }
}

/// Stream ids: one per input stream drawn from a seed.
pub const PRELOAD: u64 = 1;
pub const WARM_UP: u64 = 2;
pub fn client_stream(client: usize) -> u64 {
    100 + client as u64
}
pub fn load_stream(load: usize) -> u64 {
    10_000 + load as u64
}
fn hub_stream(client: usize, k: usize) -> u64 {
    1_000 + (client * 100 + k) as u64
}

/// Width of the `CALLER-k` ladder (defined concepts `FUNCTION ∧ ≥k calls`).
pub const LADDER: usize = 8;
/// Most outgoing `calls` a preloaded function gets.
pub const MAX_CALLS: usize = 6;
/// Rows per `(bulk-load …)` form in the preload.
const PRELOAD_CHUNK: usize = 2_000;

/// The software-information-system shape (the E3/E9 workload): modules
/// with `imports`, functions with `defined-in`/`calls`/`loc`, disjoint
/// primitive kinds and a ladder of defined concepts for recognition.
#[derive(Debug, Clone, Copy)]
pub struct Software {
    pub modules: usize,
    pub functions: usize,
}

impl Software {
    pub fn new(functions: usize) -> Software {
        Software {
            modules: (functions / 25).max(4),
            functions,
        }
    }

    pub fn ddl(&self) -> Vec<String> {
        let mut out: Vec<String> = ["defined-in", "calls", "imports", "loc"]
            .iter()
            .map(|r| format!("(define-role {r})"))
            .collect();
        out.push("(define-concept SOFTWARE-OBJECT (PRIMITIVE THING software-object))".into());
        for kind in ["MODULE", "FUNCTION", "FILE"] {
            out.push(format!(
                "(define-concept {kind} (DISJOINT-PRIMITIVE SOFTWARE-OBJECT sw-kind {}))",
                kind.to_lowercase()
            ));
        }
        out.push("(define-concept DEFINED-FUNCTION (AND FUNCTION (AT-LEAST 1 defined-in)))".into());
        out.push("(define-concept LEAF-FUNCTION (AND FUNCTION (AT-MOST 0 calls)))".into());
        out.push("(define-concept CONNECTED-MODULE (AND MODULE (AT-LEAST 1 imports)))".into());
        for k in 1..=LADDER {
            out.push(format!(
                "(define-concept CALLER-{k} (AND FUNCTION (AT-LEAST {k} calls)))"
            ));
        }
        out
    }

    /// Preload forms: modules, then functions in `(bulk-load …)` chunks.
    /// Functions without calls are half the time provably leaves
    /// (`calls` closed at zero), loaded through a separate form.
    pub fn preload(&self, seed: u64) -> Vec<String> {
        let mut rng = Rng::new(seed, PRELOAD);
        let mut out = Vec::new();
        let mut form = String::from("(bulk-load (into MODULE) (roles imports)");
        for m in 0..self.modules {
            if m > 0 && rng.pct(70) {
                let _ = write!(form, " (row mod-{m} mod-{})", rng.below(m));
            } else {
                let _ = write!(form, " (row mod-{m} _)");
            }
        }
        form.push(')');
        out.push(form);

        let header = format!("(roles defined-in loc{})", " calls".repeat(MAX_CALLS));
        let mut callers = String::new();
        let mut leaves = String::new();
        let mut in_chunk = 0;
        let flush = |callers: &mut String, leaves: &mut String, out: &mut Vec<String>| {
            if !callers.is_empty() {
                out.push(format!("(bulk-load (into FUNCTION) {header}{callers})"));
            }
            if !leaves.is_empty() {
                out.push(format!(
                    "(bulk-load (into (AND FUNCTION (AT-MOST 0 calls))) (roles defined-in loc){leaves})"
                ));
            }
            callers.clear();
            leaves.clear();
        };
        for f in 0..self.functions {
            let module = rng.below(self.modules);
            let loc = 5 + rng.below(495);
            let n_calls = if f > 0 { rng.below(MAX_CALLS + 1) } else { 0 };
            if n_calls == 0 && rng.pct(50) {
                let _ = write!(leaves, " (row fn-{f} mod-{module} {loc})");
            } else {
                let _ = write!(callers, " (row fn-{f} mod-{module} {loc}");
                for c in 0..MAX_CALLS {
                    if c < n_calls {
                        let _ = write!(callers, " fn-{}", rng.below(f));
                    } else {
                        callers.push_str(" _");
                    }
                }
                callers.push(')');
            }
            in_chunk += 1;
            if in_chunk == PRELOAD_CHUNK {
                flush(&mut callers, &mut leaves, &mut out);
                in_chunk = 0;
            }
        }
        flush(&mut callers, &mut leaves, &mut out);
        out
    }
}

/// The E3 "busy functions" query `wire-mixed` reads after every write,
/// phrased as an ad-hoc concept so retrieval must classify it (§5).
pub const BUSY: &str = "(AND FUNCTION (AT-LEAST 3 calls) (AT-LEAST 1 defined-in))";

/// What an op does to the KB, for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Write,
    Read,
}

/// One wire request of a closed-loop iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub form: String,
}

impl Op {
    fn write(form: String) -> Op {
        Op {
            kind: OpKind::Write,
            form,
        }
    }
    fn read(form: String) -> Op {
        Op {
            kind: OpKind::Read,
            form,
        }
    }
}

/// The `wire-mixed` set-up after the preload: the individual each
/// client writes, created bare.
pub fn mixed_setup(clients: usize) -> Vec<String> {
    (0..clients)
        .map(|client| format!("(create-ind {})", mixed_writer(client)))
        .collect()
}

fn mixed_writer(client: usize) -> String {
    format!("w{client}")
}

/// `wire-mixed` iteration of `client`: assert its individual to be a
/// FUNCTION with a module and 3 distinct callees drawn from the seed (so
/// it is recognized into `CALLER-3` and the busy query), read the busy
/// query back, then retract the assertion. The KB is the same size at
/// every iteration, so every iteration does the same work, however many
/// a run gets through. Returns the ops and the individual's name.
pub fn mixed_iteration(sw: &Software, rng: &mut Rng, client: usize) -> (Vec<Op>, String) {
    let name = mixed_writer(client);
    let module = rng.below(sw.modules);
    let mut callees: Vec<usize> = Vec::with_capacity(3);
    while callees.len() < 3 {
        let f = rng.below(sw.functions);
        if !callees.contains(&f) {
            callees.push(f);
        }
    }
    let function = format!(
        "(AND FUNCTION (FILLS defined-in mod-{module}) (FILLS calls fn-{} fn-{} fn-{}))",
        callees[0], callees[1], callees[2]
    );
    let ops = vec![
        Op::write(format!("(assert-ind {name} {function})")),
        Op::read(format!("(retrieve {BUSY})")),
        Op::write(format!("(retract-ind {name} {function})")),
    ];
    (ops, name)
}

/// The ops of the next iteration of `client` on a line-protocol
/// workload. `standing` is the client's hub with `(ALL member TRACKED)`
/// on `wire-cascade` (start at 0); `wire-mixed` leaves it alone.
pub fn iteration_ops(
    workload: Workload,
    sw: &Software,
    rng: &mut Rng,
    client: usize,
    standing: &mut usize,
) -> Vec<Op> {
    match workload {
        Workload::Mixed => mixed_iteration(sw, rng, client).0,
        Workload::Cascade => {
            let (ops, next) = cascade_iteration(rng, client, *standing);
            *standing = next;
            ops
        }
        Workload::Ingest => unreachable!("bulk-ingest has no line-protocol iterations"),
    }
}

/// Hubs each `wire-cascade` client owns.
const CASCADE_HUBS: usize = 4;
/// Members a `wire-cascade` hub has on average; the seed draws each
/// hub's count from `CASCADE_MEMBERS ± CASCADE_MEMBERS / 30`, a narrow
/// band, so no seed does much more work per iteration than another.
const CASCADE_MEMBERS: usize = 300;

/// Hub `k` of `client`.
fn cascade_hub(client: usize, k: usize) -> String {
    format!("hub{client}-{k}")
}

/// The members of hub `k` of `client`: individuals of their own that
/// nothing else refers to, so the hub is their only reverse-filler
/// host and a retraction re-derives the hub and its members only.
fn cascade_members(seed: u64, client: usize, k: usize) -> Vec<String> {
    (0..cascade_member_count(seed, client, k))
        .map(|j| format!("m{client}-{k}-{j}"))
        .collect()
}

/// How many members hub `k` of `client` has.
pub fn cascade_member_count(seed: u64, client: usize, k: usize) -> usize {
    let spread = CASCADE_MEMBERS / 30;
    CASCADE_MEMBERS - spread + Rng::new(seed, hub_stream(client, k)).below(2 * spread + 1)
}

/// The `wire-cascade` set-up after the preload (the E15 shape): a
/// `member` role, `TRACKED`/`AUDITED` primitives and the rule
/// `TRACKED → AUDITED`; then each client's hubs with their members,
/// and `(ALL member TRACKED)` standing on each client's hub 0.
pub fn cascade_setup(seed: u64, clients: usize) -> Vec<String> {
    let mut out: Vec<String> = vec![
        "(define-role member)".into(),
        "(define-concept TRACKED (PRIMITIVE THING tracked))".into(),
        "(define-concept AUDITED (PRIMITIVE THING audited))".into(),
        "(assert-rule TRACKED AUDITED)".into(),
    ];
    for client in 0..clients {
        for k in 0..CASCADE_HUBS {
            let hub = cascade_hub(client, k);
            out.push(format!("(create-ind {hub})"));
            let mut fills = format!("(assert-ind {hub} (FILLS member");
            for m in cascade_members(seed, client, k) {
                let _ = write!(fills, " {m}");
            }
            fills.push_str("))");
            out.push(fills);
        }
        out.push(cascade_all("assert-ind", client, 0));
    }
    out
}

fn cascade_all(verb: &str, client: usize, k: usize) -> String {
    format!("({verb} {} (ALL member TRACKED))", cascade_hub(client, k))
}

/// `wire-cascade` iteration of `client`, whose hub `standing` has
/// `(ALL member TRACKED)`: assert it on another hub the seed draws,
/// which propagates `TRACKED` onto each of its ~300 members and fires
/// the rule on each, then retract it from `standing`, which re-derives
/// that hub's members without it. Every hub's members are untracked
/// whenever it is drawn, so every iteration has the same fan-out.
/// Returns the ops and the hub that now stands.
pub fn cascade_iteration(rng: &mut Rng, client: usize, standing: usize) -> (Vec<Op>, usize) {
    let next = (standing + 1 + rng.below(CASCADE_HUBS - 1)) % CASCADE_HUBS;
    let ops = vec![
        Op::write(cascade_all("assert-ind", client, next)),
        Op::write(cascade_all("retract-ind", client, standing)),
    ];
    (ops, next)
}

const KINDS: [&str; 5] = ["dog", "cat", "bird", "fish", "hamster"];
const TEAMS: [&str; 3] = ["red", "blue", "green"];

/// The E17 record shape: `id,kind,legs,score,team`, one individual per
/// row, value shapes that drive schema inference (`ONE-OF` for kind and
/// team, `ALL INTEGER`/`FLOAT` for legs and score).
pub fn pets_csv(seed: u64, stream: u64, rows: usize) -> String {
    let mut rng = Rng::new(seed, stream);
    let mut out = String::with_capacity(32 + rows * 32);
    out.push_str("id,kind,legs,score,team\n");
    for i in 0..rows {
        let kind = KINDS[rng.below(KINDS.len())];
        let legs = rng.below(9);
        let score = rng.below(10_000) as f64 / 100.0;
        let team = TEAMS[rng.below(TEAMS.len())];
        let _ = writeln!(out, "r{i},{kind},{legs},{score:.2},{team}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_stream(seed: u64) -> String {
        let sw = Software::new(200);
        let mut rng = Rng::new(seed, client_stream(0));
        (0..20)
            .flat_map(|_| mixed_iteration(&sw, &mut rng, 0).0)
            .map(|op| op.form)
            .collect()
    }

    fn cascade_stream(seed: u64) -> String {
        let mut rng = Rng::new(seed, client_stream(0));
        let mut standing = 0;
        let mut out = cascade_setup(seed, 2).concat();
        for _ in 0..20 {
            for op in iteration_ops(
                Workload::Cascade,
                &Software::new(100),
                &mut rng,
                0,
                &mut standing,
            ) {
                out.push_str(&op.form);
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let sw = Software::new(500);
        assert_eq!(sw.preload(7), sw.preload(7));
        assert_eq!(mixed_stream(7), mixed_stream(7));
        assert_eq!(cascade_stream(7), cascade_stream(7));
        assert_eq!(
            pets_csv(7, load_stream(0), 300),
            pets_csv(7, load_stream(0), 300)
        );
    }

    #[test]
    fn different_seed_changes_inputs() {
        let sw = Software::new(500);
        assert_ne!(sw.preload(7), sw.preload(8));
        assert_ne!(mixed_stream(7), mixed_stream(8));
        assert_ne!(cascade_stream(7), cascade_stream(8));
        assert_ne!(
            pets_csv(7, load_stream(0), 300),
            pets_csv(8, load_stream(0), 300)
        );
        // Loads within one run differ from each other too.
        assert_ne!(
            pets_csv(7, load_stream(0), 300),
            pets_csv(7, load_stream(1), 300)
        );
    }

    #[test]
    fn generated_forms_parse() {
        let sw = Software::new(300);
        let mut all = sw.ddl();
        all.extend(sw.preload(3));
        all.extend(mixed_setup(2));
        all.extend(cascade_setup(3, 2));
        all.push(mixed_stream(3));
        all.push(cascade_stream(3));
        for text in all {
            classic_lang::parse(&text).unwrap_or_else(|e| panic!("{e}: {text:.200}"));
        }
    }

    #[test]
    fn cascade_hubs_alternate_over_disjoint_members() {
        let mut rng = Rng::new(1, client_stream(0));
        let mut standing = 0;
        for _ in 0..50 {
            let (ops, next) = cascade_iteration(&mut rng, 0, standing);
            assert_ne!(next, standing);
            assert!(ops[0]
                .form
                .starts_with(&format!("(assert-ind {} ", cascade_hub(0, next))));
            assert!(ops[1]
                .form
                .starts_with(&format!("(retract-ind {} ", cascade_hub(0, standing))));
            standing = next;
        }
        let mut all = std::collections::HashSet::new();
        for client in 0..2 {
            for k in 0..CASCADE_HUBS {
                let members = cascade_members(1, client, k);
                let spread = CASCADE_MEMBERS / 30;
                assert!(
                    (CASCADE_MEMBERS - spread..=CASCADE_MEMBERS + spread).contains(&members.len())
                );
                let before = all.len();
                all.extend(members.iter().cloned());
                assert_eq!(all.len(), before + members.len(), "a member is shared");
            }
        }
    }
}
