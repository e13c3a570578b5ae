//! The paper's reported numbers, as printed in MICRO-50 (2017).
//!
//! Used purely for side-by-side "paper vs measured" reporting; nothing
//! in the reproduction is fit to these values at run time.

/// Task order used throughout: TEDLIUM(Kaldi), Librispeech, Voxforge,
/// TEDLIUM(EESEN).
pub const TASKS: [&str; 4] = [
    "Kaldi-TEDLIUM",
    "Kaldi-Librispeech",
    "Kaldi-Voxforge",
    "EESEN-TEDLIUM",
];

/// The index of task `name` in [`TASKS`] (and so in every per-task
/// array below), or `None` for a task the paper does not report.
pub fn task_index(name: &str) -> Option<usize> {
    TASKS.iter().position(|t| *t == name)
}

/// Table 1: AM WFST size in MB per task.
pub const TABLE1_AM_MB: [f64; 4] = [33.0, 40.0, 2.8, 34.0];
/// Table 1: LM WFST size in MB per task.
pub const TABLE1_LM_MB: [f64; 4] = [66.0, 59.0, 2.3, 102.0];
/// Table 1: composed WFST size in MB per task.
pub const TABLE1_COMPOSED_MB: [f64; 4] = [1090.0, 496.0, 37.0, 1226.0];

/// Table 2: compressed on-the-fly (AM+LM) sizes in MB per task.
pub const TABLE2_OTF_COMP_MB: [f64; 4] = [32.39, 21.32, 1.33, 39.35];
/// Table 2: compressed fully-composed sizes in MB per task.
pub const TABLE2_FULL_COMP_MB: [f64; 4] = [269.78, 136.82, 9.38, 414.28];

/// Table 5: average decode latency per utterance, ms (Tegra X1).
pub const TABLE5_TEGRA_AVG_MS: [f64; 4] = [1069.0, 1336.0, 450.0, 1412.0];
/// Table 5: average decode latency per utterance, ms (Reza et al.).
pub const TABLE5_REZA_AVG_MS: [f64; 4] = [76.7, 31.9, 15.5, 60.0];
/// Table 5: average decode latency per utterance, ms (UNFOLD).
pub const TABLE5_UNFOLD_AVG_MS: [f64; 4] = [92.5, 30.0, 4.2, 111.6];

/// Table 6: word error rate (%) per task.
pub const TABLE6_WER: [f64; 4] = [22.59, 10.62, 13.26, 27.72];

/// Headline: average footprint reduction vs the uncompressed composed
/// WFST ("31x on average ... minimum and maximum ... 23.3x and 34.7x").
pub const REDUCTION_VS_COMPOSED: f64 = 31.0;
/// Headline: reduction vs the compressed composed WFST ("8.8x").
pub const REDUCTION_VS_COMPOSED_COMP: f64 = 8.8;
/// Headline: average search-energy savings vs Reza et al. ("28%").
pub const ENERGY_SAVINGS_PCT: f64 = 28.0;
/// Headline: UNFOLD real-time factor ("155x faster than real-time").
pub const UNFOLD_XRT: f64 = 155.0;
/// Headline: baseline real-time factor ("188x").
pub const REZA_XRT: f64 = 188.0;
/// Headline: GPU real-time factor ("Tegra X1 runs 9x faster than
/// real-time").
pub const TEGRA_XRT: f64 = 9.0;
/// §3.3: hypotheses removed by preemptive pruning ("22.5%").
pub const PREEMPTIVE_PRUNED_PCT: f64 = 22.5;
/// §3.3: speedup from preemptive pruning ("16.3%").
pub const PREEMPTIVE_SPEEDUP_PCT: f64 = 16.3;
/// §2/§5.1 lookup ladder: slowdown vs the baseline with linear search.
pub const LINEAR_SEARCH_SLOWDOWN: f64 = 10.0;
/// §2/§5.1 lookup ladder: slowdown with binary search only.
pub const BINARY_SEARCH_SLOWDOWN: f64 = 3.0;
/// §5.1 lookup ladder: final slowdown with OLT + preemptive pruning.
pub const FINAL_SLOWDOWN: f64 = 1.18;
/// §5.1: average off-chip memory access reduction ("68%").
pub const DRAM_ACCESS_REDUCTION_PCT: f64 = 68.0;
/// Figure 11: average bandwidth reduction ("71%").
pub const BANDWIDTH_REDUCTION_PCT: f64 = 71.0;
/// §5.1: UNFOLD die area, mm².
pub const UNFOLD_AREA_MM2: f64 = 21.5;
/// §5.1: area reduction vs the baseline ("16%").
pub const AREA_REDUCTION_PCT: f64 = 16.0;
/// §5.2: overall-system speedup over GPU-only decoding ("3.4x").
pub const OVERALL_SPEEDUP_VS_GPU: f64 = 3.4;
/// §5.2: overall-system energy reduction vs GPU-only ("1.5x").
pub const OVERALL_ENERGY_REDUCTION: f64 = 1.5;
/// §5.2: dataset reduction with the acoustic models included ("15.6x").
pub const OVERALL_DATASET_REDUCTION: f64 = 15.6;
/// Figure 1: Viterbi share of GPU execution time (%), per task.
pub const FIG1_VITERBI_PCT: [f64; 4] = [78.0, 78.0, 88.0, 55.0];
