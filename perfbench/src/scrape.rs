//! `GET /metrics` scrapes: parse the Prometheus text exposition and take
//! counter and histogram (`_sum`/`_count`) deltas around a measured
//! phase. The benchmark reads the same probes an operator reads.
//!
//! Only the process-wide roll-up (unlabeled samples) is read: it sums
//! every open tenant, which is what a phase that spans several tenants
//! needs. Every series the benchmark reads is listed in [`SERIES`]; a
//! series missing from an exposition is an error, so a renamed counter
//! fails the run instead of reading as zero.

use std::collections::BTreeMap;

/// Every metric family the benchmark reads (histograms by base name).
pub const SERIES: &[(&str, Kind)] = &[
    ("classic_server_request_ns", Kind::Histogram),
    ("classic_server_requests_total", Kind::Counter),
    ("classic_server_errors_total", Kind::Counter),
    ("classic_retrieve_ns", Kind::Histogram),
    ("classic_retrieve_total", Kind::Counter),
    ("classic_retrieve_tested_total", Kind::Counter),
    ("classic_retrieve_free_total", Kind::Counter),
    ("classic_retrieve_candidates", Kind::Histogram),
    ("classic_subsume_tests_total", Kind::Counter),
    ("classic_subsume_memo_hits_total", Kind::Counter),
    ("classic_subsume_memo_misses_total", Kind::Counter),
    ("classic_intern_hits_total", Kind::Counter),
    ("classic_nf_interned", Kind::Counter),
    ("classic_classify_ns", Kind::Histogram),
    ("classic_assert_ns", Kind::Histogram),
    ("classic_retract_ns", Kind::Histogram),
    ("classic_propagate_fixpoint_ns", Kind::Histogram),
    ("classic_propagation_steps_total", Kind::Counter),
    ("classic_realizations_total", Kind::Counter),
    ("classic_rules_fired_total", Kind::Counter),
    ("classic_bulk_assert_ns", Kind::Histogram),
    ("classic_bulk_sequential_fallbacks_total", Kind::Counter),
    ("classic_store_append_ns", Kind::Histogram),
    ("classic_store_appends_total", Kind::Counter),
    ("classic_store_append_bytes_total", Kind::Counter),
    ("classic_store_bulk_load_ns", Kind::Histogram),
    ("classic_store_compact_render_ns", Kind::Histogram),
    ("classic_store_compact_publish_ns", Kind::Histogram),
    ("classic_store_segments_written_total", Kind::Counter),
];

/// Families the program registers only when their first event happens
/// (a bulk chunk falling back to row-by-row replay). Absent from both
/// scrapes of a phase, they read as zero; the name-check test forces
/// the event so these are checked like every other series.
pub const REGISTERED_ON_FIRST_EVENT: &[&str] = &["classic_bulk_sequential_fallbacks_total"];

/// How a family is exposed: one sample, or `_sum` and `_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Histogram,
}

/// One parsed exposition: unlabeled sample name → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parse Prometheus/OpenMetrics text. Comments, labeled samples and
    /// exemplar suffixes (` # {…}`) are skipped.
    pub fn parse(text: &str) -> Scrape {
        let mut out = BTreeMap::new();
        for line in text.lines() {
            let line = line.split(" # ").next().unwrap_or("");
            if line.starts_with('#') || line.contains('{') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_owned(), v);
                }
            }
        }
        Scrape(out)
    }

    fn sample(&self, name: &str) -> Result<f64, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("series {name} missing from /metrics"))
    }

    /// Names from `series` whose samples are absent here.
    pub fn missing(&self, series: &[(&str, Kind)]) -> Vec<String> {
        let mut missing = Vec::new();
        for &(name, kind) in series {
            let samples: Vec<String> = match kind {
                Kind::Counter => vec![name.to_owned()],
                Kind::Histogram => vec![format!("{name}_sum"), format!("{name}_count")],
            };
            missing.extend(samples.into_iter().filter(|s| !self.0.contains_key(s)));
        }
        missing
    }
}

/// The change of every series in [`SERIES`] between two scrapes.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    samples: BTreeMap<String, f64>,
}

impl Delta {
    /// `after − before` for every series in [`SERIES`]; errs naming the
    /// first series either scrape lacks (apart from a
    /// [`REGISTERED_ON_FIRST_EVENT`] family that neither has yet).
    pub fn between(before: &Scrape, after: &Scrape) -> Result<Delta, String> {
        let mut samples = BTreeMap::new();
        for &(name, kind) in SERIES {
            let names: Vec<String> = match kind {
                Kind::Counter => vec![name.to_owned()],
                Kind::Histogram => vec![format!("{name}_sum"), format!("{name}_count")],
            };
            for s in names {
                let unseen = !before.0.contains_key(&s) && !after.0.contains_key(&s);
                if unseen && REGISTERED_ON_FIRST_EVENT.contains(&name) {
                    samples.insert(s, 0.0);
                    continue;
                }
                let d = after.sample(&s)? - before.sample(&s)?;
                samples.insert(s, d);
            }
        }
        Ok(Delta { samples })
    }

    /// Sum another phase's deltas into this one.
    pub fn add(&mut self, other: &Delta) {
        for (k, v) in &other.samples {
            *self.samples.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// A counter's increase (0 for a name outside [`SERIES`]).
    pub fn counter(&self, name: &str) -> f64 {
        debug_assert!(
            SERIES.iter().any(|(n, _)| *n == name),
            "{name} not in SERIES"
        );
        self.samples.get(name).copied().unwrap_or(0.0)
    }

    /// Observations a histogram gained.
    pub fn count(&self, name: &str) -> f64 {
        self.counter_of(&format!("{name}_count"))
    }

    /// Mean of the observations a histogram gained (0 when none).
    pub fn mean(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n > 0.0 {
            self.counter_of(&format!("{name}_sum")) / n
        } else {
            0.0
        }
    }

    fn counter_of(&self, sample: &str) -> f64 {
        self.samples.get(sample).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_roll_up_and_skips_labels_and_exemplars() {
        let s = Scrape::parse(
            "# TYPE x counter\nx 5\nx{tenant=\"a\"} 3\nh_sum 10 # {trace_id=\"ab\"} 1\nh_count 2\n",
        );
        assert_eq!(s.sample("x"), Ok(5.0));
        assert_eq!(s.sample("h_sum"), Ok(10.0));
        assert!(s.sample("y").is_err());
    }

    #[test]
    fn deltas_and_means() {
        let mut before = String::new();
        let mut after = String::new();
        for &(name, kind) in SERIES {
            match kind {
                Kind::Counter => {
                    before.push_str(&format!("{name} 1\n"));
                    after.push_str(&format!("{name} 4\n"));
                }
                Kind::Histogram => {
                    before.push_str(&format!("{name}_sum 100\n{name}_count 1\n"));
                    after.push_str(&format!("{name}_sum 700\n{name}_count 3\n"));
                }
            }
        }
        let d =
            Delta::between(&Scrape::parse(&before), &Scrape::parse(&after)).expect("all present");
        assert_eq!(d.counter("classic_retrieve_total"), 3.0);
        assert_eq!(d.count("classic_retrieve_ns"), 2.0);
        assert_eq!(d.mean("classic_retrieve_ns"), 300.0);
    }

    #[test]
    fn a_renamed_series_fails_the_delta_instead_of_reading_zero() {
        let mut text = String::new();
        for &(name, kind) in SERIES {
            let name = if name == "classic_store_appends_total" {
                "classic_store_log_appends_total"
            } else {
                name
            };
            match kind {
                Kind::Counter => text.push_str(&format!("{name} 1\n")),
                Kind::Histogram => text.push_str(&format!("{name}_sum 1\n{name}_count 1\n")),
            }
        }
        let s = Scrape::parse(&text);
        assert_eq!(
            s.missing(SERIES),
            vec!["classic_store_appends_total".to_owned()]
        );
        let err = Delta::between(&s, &s).expect_err("renamed series must fail");
        assert!(err.contains("classic_store_appends_total"), "{err}");
    }
}
