//! # cachekit-bench
//!
//! The experiment harness: one binary per table/figure of the
//! reproduction (see `DESIGN.md` for the index).
//!
//! Every binary prints a markdown table to stdout and drops a
//! machine-readable JSON record under `results/` so that
//! `EXPERIMENTS.md` can cite exact numbers. Records are written through
//! [`Runner`], which stamps each one with a [`RunReport`] — wall time,
//! worker count, seed and counters — so every number in the paper
//! reproduction carries its provenance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod exec;
pub mod json;
pub mod metrics;

use json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// A rectangular result table with a title and column headers.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption (e.g. `"Table 1: inferred cache geometries"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i].saturating_sub(cell.chars().count());
                let _ = write!(line, " {}{} |", cell, " ".repeat(pad));
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in widths.iter().take(ncols) {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// The table as a [`Json`] object (title, headers, rows).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("title", Json::from(self.title.clone())),
            ("headers", Json::from(self.headers.clone())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| Json::from(r.clone())).collect()),
            ),
        ])
    }
}

/// Per-run provenance attached to every experiment record: how long the
/// run took, how parallel it was, what it was seeded with, and whatever
/// counters the experiment accumulated.
///
/// Serialized as the `"run_report"` field of every `results/*.json`:
///
/// ```json
/// {
///   "wall_time_s": 1.234,
///   "cells": 42,
///   "jobs": 8,
///   "seed": 7,
///   "counters": { "accesses": 123456 }
/// }
/// ```
///
/// [`Runner::finish`] appends a `"metrics"` field to this block — the
/// process's `cachekit-obs` snapshot (see [`metrics::metrics_to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Wall-clock duration of the experiment, seconds.
    pub wall_time_s: f64,
    /// Number of work cells the experiment evaluated ((policy, geometry)
    /// pairs, campaigns, scripts — the experiment's own unit).
    pub cells: u64,
    /// Worker threads the run was configured for.
    pub jobs: usize,
    /// The run's base PRNG seed (0 when the experiment draws nothing).
    pub seed: u64,
    /// Free-form named counters (accesses, measurements, …).
    pub counters: BTreeMap<String, u64>,
}

impl RunReport {
    /// As a [`Json`] object, field order fixed.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("wall_time_s", Json::Num(self.wall_time_s)),
            ("cells", Json::from(self.cells)),
            ("jobs", Json::from(self.jobs)),
            ("seed", Json::from(self.seed)),
            ("counters", Json::from(&self.counters)),
        ])
    }
}

/// The shared experiment runner: times the run, tracks provenance, and
/// emits the instrumented record.
///
/// Every experiment binary follows the same shape:
///
/// ```no_run
/// use cachekit_bench::{jobj, Runner, Table};
///
/// let mut run = Runner::new("fig0_demo").with_seed(7);
/// let mut table = Table::new("Demo", &["x"]);
/// table.row(vec!["1".into()]);
/// run.add_cells(1);
/// run.finish(&table, jobj! { "series": vec![1.0] });
/// ```
#[derive(Debug)]
pub struct Runner {
    name: String,
    started: Instant,
    jobs: usize,
    seed: u64,
    cells: u64,
    counters: BTreeMap<String, u64>,
}

impl Runner {
    /// Start a run: records the start time and resolves the worker count
    /// from `CACHEKIT_JOBS` / available parallelism.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            started: Instant::now(),
            jobs: cachekit_sim::parallel::effective_jobs(None),
            seed: 0,
            cells: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Record the run's base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the recorded worker count (e.g. for a deliberately
    /// serial experiment).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The worker count this run is configured for — pass this to the
    /// `*_jobs` parallel entry points so the report matches reality.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Count `n` more evaluated work cells.
    pub fn add_cells(&mut self, n: u64) {
        self.cells += n;
    }

    /// Add `n` to the named counter (created at zero).
    pub fn count(&mut self, key: impl Into<String>, n: u64) {
        *self.counters.entry(key.into()).or_insert(0) += n;
    }

    /// The report as it stands now (wall time keeps running until
    /// [`finish`](Self::finish)).
    pub fn report(&self) -> RunReport {
        RunReport {
            wall_time_s: self.started.elapsed().as_secs_f64(),
            cells: self.cells,
            jobs: self.jobs,
            seed: self.seed,
            counters: self.counters.clone(),
        }
    }

    /// Print the table and persist the instrumented record under
    /// `results/<name>.json`; returns the path written.
    ///
    /// The `run_report` block is augmented with a `"metrics"` field
    /// holding the process's `cachekit-obs` snapshot (per-phase oracle
    /// query counts, span timings, worker-pool histograms); see
    /// [`metrics::metrics_to_json`] for the schema.
    pub fn finish(self, table: &Table, extra: Json) -> PathBuf {
        println!("{}", table.to_markdown());
        let mut run_report = self.report().to_json();
        run_report.insert(
            "metrics",
            metrics::metrics_to_json(&cachekit_obs::snapshot()),
        );
        let record = Json::object(vec![
            ("experiment", Json::from(self.name.as_str())),
            ("run_report", run_report),
            ("table", table.to_json()),
            ("extra", extra),
        ]);
        let path = results_dir().join(format!("{}.json", self.name));
        std::fs::write(&path, record.to_pretty()).expect("write results file");
        println!("[written {}]", path.display());
        path
    }
}

/// Directory where experiment records are written (`results/` at the
/// workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Format a byte count the way datasheets do (KiB/MiB).
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 && bytes.is_multiple_of(1024 * 1024) {
        format!("{} MiB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{} KiB", bytes / 1024)
    } else {
        format!("{bytes} B")
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_aligned() {
        let mut t = Table::new("Demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | long_header |"));
        assert!(md.contains("| 1 | 2           |"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("Demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(24 * 1024), "24 KiB");
        assert_eq!(human_bytes(6 * 1024 * 1024), "6 MiB");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    fn table_serializes_to_json() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["x".into()]);
        assert_eq!(
            t.to_json().to_compact(),
            "{\"title\":\"T\",\"headers\":[\"a\"],\"rows\":[[\"x\"]]}"
        );
    }

    #[test]
    fn run_report_has_the_documented_schema() {
        let mut counters = BTreeMap::new();
        counters.insert("accesses".to_owned(), 5u64);
        let r = RunReport {
            wall_time_s: 0.5,
            cells: 3,
            jobs: 2,
            seed: 9,
            counters,
        };
        assert_eq!(
            r.to_json().to_compact(),
            "{\"wall_time_s\":0.5,\"cells\":3,\"jobs\":2,\"seed\":9,\
             \"counters\":{\"accesses\":5}}"
        );
    }

    #[test]
    fn runner_accumulates_provenance() {
        let mut run = Runner::new("unit_test").with_seed(42).with_jobs(3);
        run.add_cells(4);
        run.count("measurements", 10);
        run.count("measurements", 5);
        let report = run.report();
        assert_eq!(report.cells, 4);
        assert_eq!(report.jobs, 3);
        assert_eq!(report.seed, 42);
        assert_eq!(report.counters["measurements"], 15);
        assert!(report.wall_time_s >= 0.0);
    }
}
