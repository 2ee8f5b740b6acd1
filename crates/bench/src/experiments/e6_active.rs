//! E6 — the active database: deductions per told fact.
//!
//! Paper §3.3/§4: CLASSIC "can actively discover new information about
//! objects from several sources" — recognition, `ALL` propagation onto
//! fillers, `AT-MOST`-driven closure, `SAME-AS` filler derivation, and
//! forward-chaining rules. The crime database of §4 exercises all of
//! them: asserting `DOMESTIC-CRIME` of a crime with a known site and
//! perpetrator derives the perpetrator's domicile; recognition triggers
//! the `typical-suspect` heuristic rule.
//!
//! Metric: derived consequences per told assertion (the "activeness" of
//! the database), broken out by source, as the database grows.

use crate::experiments::{ns_per, time};
use crate::workload::crime::{build, CrimeConfig};
use std::fmt::Write as _;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E6: active deduction rate (crime DB of §4) ============"
    );
    let _ = writeln!(
        out,
        "paper claim (§3.3): the DB derives fillers, closures, memberships"
    );
    let _ = writeln!(
        out,
        "and rule consequences not explicitly asserted by users"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>8} {:>8} {:>8} {:>9} {:>10} {:>8} {:>11}",
        "crimes", "told", "fills", "corefs", "rules", "reclass", "der/told", "steps", "µs/assert"
    );
    for crimes in [100usize, 400, 1_600, 6_400] {
        let cfg = CrimeConfig {
            crimes,
            ..CrimeConfig::default()
        };
        let (ckb, elapsed) = time(|| build(&cfg));
        let fills: u64 = ckb.reports.iter().map(|r| r.fills_propagated).sum();
        let corefs: u64 = ckb.reports.iter().map(|r| r.corefs_derived).sum();
        let rules: u64 = ckb.reports.iter().map(|r| r.rules_fired).sum();
        let reclass: u64 = ckb.reports.iter().map(|r| r.reclassified).sum();
        let derived = fills + corefs + rules + reclass;
        let steps: u64 = ckb.reports.iter().map(|r| r.steps).sum();
        let _ = writeln!(
            out,
            "{:>7} {:>7} {:>8} {:>8} {:>8} {:>9} {:>10.2} {:>8} {:>11.1}",
            crimes,
            ckb.told_assertions,
            fills,
            corefs,
            rules,
            reclass,
            derived as f64 / ckb.told_assertions as f64,
            steps,
            ns_per(elapsed, ckb.told_assertions as u64) / 1000.0,
        );
    }
    let _ = writeln!(
        out,
        "expected shape: a stable derived-per-told ratio > 0 (every domestic"
    );
    let _ = writeln!(
        out,
        "crime derives a domicile, fires the suspect rule, and reclassifies);"
    );
    let _ = writeln!(out, "per-assertion cost stays flat as the DB grows.");
    out
}
