//! E15 — wide propagation cascades through the epoch-deduplicated
//! worklist.
//!
//! The paper prices propagation to fixpoint at classes × individuals
//! (§5). E15 measures assert-to-fixpoint cost on an E9-scale software KB
//! augmented with wide ALL/rule cascades (the worst case for a worklist:
//! one assertion touches thousands of individuals, and every member's
//! rule firing re-enqueues its hub). It reports wall time and
//! propagation steps per assertion.
//!
//! Correctness is asserted inline: `check_invariants` must hold after
//! the measured phase, the rule must have fired (AUDITED > 0), and the
//! measured steps must stay within the paper's #classes × #individuals
//! bound.
//!
//! Full run: 8 000 functions + 8 hubs × 1 500 members; smoke
//! (`CLASSIC_BENCH_SMOKE`): 400 functions + 2 hubs × 200 members.

use crate::experiments::time;
use crate::workload::software::{build, SoftwareConfig};
use classic_core::desc::{Concept, IndRef};
use std::fmt::Write as _;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var_os("CLASSIC_BENCH_SMOKE").is_some()
}

struct Scale {
    functions: usize,
    modules: usize,
    hubs: usize,
    members: usize,
}

fn scale() -> Scale {
    if smoke() {
        Scale {
            functions: 400,
            modules: 16,
            hubs: 2,
            members: 200,
        }
    } else {
        Scale {
            functions: 8_000,
            modules: 320,
            hubs: 8,
            members: 1_500,
        }
    }
}

/// What one run of the measured cascade phase cost.
struct Cascade {
    elapsed: Duration,
    ops: u64,
    steps: u64,
    classes: usize,
    individuals: usize,
}

/// Build the base KB and run the measured cascade phase.
fn run_cascade(sc: &Scale) -> Cascade {
    let cfg = SoftwareConfig {
        modules: sc.modules,
        functions: sc.functions,
        ..SoftwareConfig::default()
    };
    let mut sw = build(&cfg);
    let kb = &mut sw.kb;
    // Cascade schema: a wide role, a recognition target, and a rule so
    // every cascade does conjunction + recognition + forward chaining.
    kb.define_role("member").expect("fresh role");
    kb.define_concept("TRACKED", Concept::primitive(Concept::thing(), "tracked"))
        .expect("fresh");
    kb.define_concept("AUDITED", Concept::primitive(Concept::thing(), "audited"))
        .expect("fresh");
    let audited = kb.schema().symbols.find_concept("AUDITED").expect("c");
    kb.assert_rule("TRACKED", Concept::Name(audited))
        .expect("rule");
    let member = kb.schema().symbols.find_role("member").expect("role");
    let tracked = kb.schema().symbols.find_concept("TRACKED").expect("c");
    // Hubs point at existing function individuals so the cascade crosses
    // the whole arena, not a fresh corner of it.
    let mut ops = 0u64;
    let mut steps = 0u64;
    let (_, elapsed) = time(|| {
        for h in 0..sc.hubs {
            let hub = format!("hub-{h}");
            kb.create_ind(&hub).expect("fresh ind");
            let fillers: Vec<IndRef> = (0..sc.members)
                .map(|i| {
                    let f = format!("fn-{}", (h * 613 + i * 7) % sc.functions);
                    IndRef::Classic(kb.schema_mut().symbols.individual(&f))
                })
                .collect();
            let fill = kb
                .assert_ind(&hub, &Concept::Fills(member, fillers))
                .expect("coherent");
            // The measured fixpoint: TRACKED fans out over every member,
            // recognition re-runs, and the rule fires AUDITED on each.
            let all = kb
                .assert_ind(
                    &hub,
                    &Concept::All(member, Box::new(Concept::Name(tracked))),
                )
                .expect("coherent");
            ops += 2;
            steps += fill.steps + all.steps;
        }
    });
    kb.check_invariants().expect("invariants after cascade");
    let audited_count = kb.instances_of(audited).expect("defined").len();
    assert!(
        audited_count > 0,
        "cascade fired no rules — workload is broken"
    );
    Cascade {
        elapsed,
        ops,
        steps,
        classes: kb.taxonomy().len(),
        individuals: kb.ind_count(),
    }
}

pub fn run() -> String {
    let sc = scale();
    let mut out = String::new();
    let _ = writeln!(out, "== E15: wide propagation cascades ==");
    let _ = writeln!(
        out,
        "assert-to-fixpoint over {} functions, {} hubs x {} members",
        sc.functions, sc.hubs, sc.members
    );
    let c = run_cascade(&sc);
    let bound = c.classes as u64 * c.individuals as u64;
    assert!(
        c.steps <= bound,
        "{} propagation steps exceed #classes x #individuals = {} x {} = {bound}",
        c.steps,
        c.classes,
        c.individuals
    );
    let ops = c.ops.max(1) as f64;
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>8} {:>14} {:>14}",
        "cascade ms", "ms/assert", "steps", "steps/assert", "bound"
    );
    let _ = writeln!(
        out,
        "{:>10.1} {:>12.2} {:>8} {:>14.1} {:>14}",
        c.elapsed.as_secs_f64() * 1e3,
        c.elapsed.as_secs_f64() * 1e3 / ops,
        c.steps,
        c.steps as f64 / ops,
        bound,
    );
    let _ = writeln!(
        out,
        "asserted: steps <= #classes x #individuals ({} x {})",
        c.classes, c.individuals
    );
    out
}
