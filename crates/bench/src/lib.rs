#![warn(missing_docs)]

//! Paper-reproduction experiments for UNFOLD.
//!
//! One binary per paper table/figure (see `src/bin/`), each printing a
//! Markdown table with the paper's reported value next to the measured
//! one. DESIGN.md carries the experiment index; EXPERIMENTS.md records
//! the outcomes. Performance is measured by the `benchmark/` harness,
//! not here.
//!
//! Environment knobs honored by every binary:
//!
//! * `UNFOLD_UTTS` — test utterances per task (default 8),
//! * `UNFOLD_SMOKE` — set to `1` to run on the tiny task only (CI).

pub mod harness;
pub mod paper;

pub use harness::{
    build_all, export_metrics, fmt1, fmt2, header, metrics_arg, row, run_unfold_with_metrics,
    utterance_count, TaskRun,
};
