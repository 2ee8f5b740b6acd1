//! The experiment harness: one module per experiment in DESIGN.md §5.
//!
//! The paper has no numbered tables or figures; each experiment here
//! regenerates one of its quantitative claims (see the per-module docs
//! and EXPERIMENTS.md). Every experiment prints a self-contained table
//! with the paper's claim quoted, the workload parameters, and the
//! measured rows.

pub mod e10_retraction;
pub mod e11_analyze;
pub mod e12_store;
pub mod e13_obs_overhead;
pub mod e14_server;
pub mod e15_cascade;
pub mod e16_incremental;
pub mod e17_bulk;
pub mod e18_tracing;
pub mod e1_subsumption;
pub mod e2_classification;
pub mod e3_query;
pub mod e4_rules;
pub mod e5_normalize;
pub mod e6_active;
pub mod e7_openworld;
pub mod e8_ablations;
pub mod e9_kernel_cache;

use std::time::{Duration, Instant};

/// Time a closure, returning its result and the elapsed wall time.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Nanoseconds per operation, guarded against division by zero.
pub fn ns_per(d: Duration, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        d.as_nanos() as f64 / ops as f64
    }
}

/// One experiment registration: (id, description, runner).
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// The experiment registry.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "subsumption time ∝ |C1|·|C2| (paper §5)",
            e1_subsumption::run,
        ),
        (
            "e2",
            "schema classification cost and taxonomy pruning (paper §5)",
            e2_classification::run,
        ),
        (
            "e3",
            "query answering via classification vs naive scan (paper §5)",
            e3_query::run,
        ),
        (
            "e4",
            "rule propagation to fixpoint, bounded by classes × individuals (paper §5)",
            e4_rules::run,
        ),
        (
            "e5",
            "normalization decides the §2.2 equivalences; cost vs size",
            e5_normalize::run,
        ),
        (
            "e6",
            "active-DB deduction rate on the §4 crime database",
            e6_active::run,
        ),
        (
            "e7",
            "open-world vs closed-world answers (paper §1, §3.5.2)",
            e7_openworld::run,
        ),
        (
            "e8",
            "ablations: pruning, extension index, normal-form reuse",
            e8_ablations::run,
        ),
        (
            "e9",
            "subsumption memo + bitset closure vs the uncached path",
            e9_kernel_cache::run,
        ),
        (
            "e10",
            "incremental retraction vs rebuild-from-scratch",
            e10_retraction::run,
        ),
        (
            "e11",
            "static analyzer cost vs TBox size; catch rate on seeded bugs",
            e11_analyze::run,
        ),
        (
            "e12",
            "segmented snapshot store: open cost, segment reuse, crash matrix",
            e12_store::run,
        ),
        (
            "e13",
            "observability overhead: Off vs Counters vs Full (Off ≤ 3%, asserted)",
            e13_obs_overhead::run,
        ),
        (
            "e14",
            "multi-tenant server: concurrent wire-protocol latency and throughput",
            e14_server::run,
        ),
        (
            "e15",
            "wide propagation cascades: ms and steps per assert, steps <= classes x individuals",
            e15_cascade::run,
        ),
        (
            "e16",
            "incremental re-lint: cone-bounded refresh vs full analysis, equality asserted",
            e16_incremental::run,
        ),
        (
            "e17",
            "bulk ingest vs incremental asserts: >=10x at 1e5 rows, same-state oracle",
            e17_bulk::run,
        ),
        (
            "e18",
            "end-to-end request tracing: <=1.05x overhead, attribution, Chrome export",
            e18_tracing::run,
        ),
    ]
}

/// Run one experiment by id (or `all`), returning the rendered report.
pub fn run(id: &str) -> Option<String> {
    if id == "all" {
        let mut out = String::new();
        for (_, _, f) in registry() {
            out.push_str(&f());
            out.push('\n');
        }
        return Some(out);
    }
    registry()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f())
}
