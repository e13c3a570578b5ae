#![warn(missing_docs)]

//! Paper-reproduction experiments for UNFOLD.
//!
//! One function per paper table, figure and ablation renders a Markdown
//! page with the paper's reported value next to the measured one. The
//! `unfold-bench [ID..]` binary runs them (default: all of them) and
//! writes each page to `results/<id>.md`; CI regenerates every page and
//! fails when a checked-in number drifts. DESIGN.md carries the
//! experiment index; EXPERIMENTS.md discusses the outcomes. Performance
//! is measured by the `benchmark/` harness, not here.
//!
//! `UNFOLD_UTTS` sets the test utterances per task (default 8).

pub mod ablations;
pub mod figures;
pub mod harness;
pub mod paper;
pub mod tables;

pub use harness::{utterance_count, Bench, Page, TaskRun};

/// One experiment: writes its page from the shared tasks.
pub type Experiment = fn(&Bench, &mut Page);

/// Every experiment by id, in run order. The id is the page's file stem
/// under `results/`.
pub const EXPERIMENTS: [(&str, Experiment); 24] = [
    ("fig01_time_breakdown", figures::fig01_time_breakdown),
    ("fig02_dataset_sizes", figures::fig02_dataset_sizes),
    ("table1_wfst_sizes", tables::table1_wfst_sizes),
    ("table2_compressed_sizes", tables::table2_compressed_sizes),
    ("table3_configs", tables::table3_configs),
    ("table4_gpu_config", tables::table4_gpu_config),
    ("fig06_cache_miss_sweep", figures::fig06_cache_miss_sweep),
    ("fig07_offset_table", figures::fig07_offset_table),
    ("fig08_memory_footprint", figures::fig08_memory_footprint),
    ("fig09_search_energy", figures::fig09_search_energy),
    ("fig10_power_breakdown", figures::fig10_power_breakdown),
    ("fig11_bandwidth", figures::fig11_bandwidth),
    ("table5_decode_latency", tables::table5_decode_latency),
    ("table6_wer", tables::table6_wer),
    ("fig12_overall_time", figures::fig12_overall_time),
    ("fig13_overall_energy", figures::fig13_overall_energy),
    ("ablation_lm_lookup", ablations::ablation_lm_lookup),
    (
        "ablation_preemptive_pruning",
        ablations::ablation_preemptive_pruning,
    ),
    ("ablation_quantization", ablations::ablation_quantization),
    ("ablation_cache_split", ablations::ablation_cache_split),
    ("ablation_two_pass", ablations::ablation_two_pass),
    ("ablation_beam_sweep", ablations::ablation_beam_sweep),
    (
        "ablation_scoring_substrate",
        ablations::ablation_scoring_substrate,
    ),
    ("overall_summary", tables::overall_summary),
];

/// The experiments named by `ids`, in that order, or every experiment
/// when `ids` is empty. An unknown id is an error whose message is the
/// usage line plus the valid ids.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<(&'static str, Experiment)>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    let find = |id: &str| EXPERIMENTS.iter().find(|(name, _)| *name == id).copied();
    ids.iter()
        .map(|id| {
            find(id.as_ref()).ok_or_else(|| {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                format!(
                    "unknown experiment `{}`\nusage: unfold-bench [ID..]\nvalid ids: {}",
                    id.as_ref(),
                    valid.join(" ")
                )
            })
        })
        .collect()
}

/// Renders one experiment's page.
pub fn render(bench: &Bench, experiment: Experiment) -> String {
    let mut page = Page::default();
    experiment(bench, &mut page);
    page.into_string()
}
