//! End-to-end and per-layer benchmark of the served CLASSIC knowledge
//! base. See `perfbench/README.md` for the workloads and metrics.

pub mod checks;
pub mod gen;
pub mod host;
pub mod replay;
pub mod run;
pub mod scrape;
pub mod trace;
pub mod wire;
