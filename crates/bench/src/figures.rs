//! The paper's figures, one function each.

use unfold_decoder::{DecodeConfig, OtfDecoder, TraceRecorder};
use unfold_sim::{
    batch_pipeline, Accelerator, AcceleratorConfig, CacheConfig, ComponentEnergy, GpuModel,
    SimReport,
};

use crate::harness::{fmt1, fmt2, paper_cell, Bench, Page, TaskRun};
use crate::paper;

/// Figure 1: percentage of GPU execution time spent in the Viterbi
/// search vs the GMM/DNN/LSTM acoustic scoring, per ASR decoder.
pub fn fig01_time_breakdown(b: &Bench, p: &mut Page) {
    p.line("# Figure 1 — GPU execution-time breakdown (Tegra X1 model)\n");
    p.header("Task | Viterbi % (paper) | Viterbi % (measured) | Scoring % (measured)");
    for task in &b.tasks {
        let gpu = task.gpu();
        let viterbi = gpu.viterbi_fraction() * 100.0;
        let paper_pct = paper::task_index(task.name()).map(|i| paper::FIG1_VITERBI_PCT[i]);
        p.row(&[
            task.name().into(),
            paper_cell(paper_pct, fmt1),
            fmt1(viterbi),
            fmt1(100.0 - viterbi),
        ]);
    }
    p.line("\nPaper's claim: the Viterbi search dominates (55-88%) across");
    p.line("GMM-, DNN-, and LSTM-based decoders, motivating a search accelerator.");
}

/// Figure 2: sizes of the ASR datasets (acoustic model vs WFST); the
/// WFST dominates, taking 87-97% of the total.
pub fn fig02_dataset_sizes(b: &Bench, p: &mut Page) {
    p.line("# Figure 2 — dataset sizes per decoder (scaled task instances)\n");
    p.header("Task | GMM/DNN/LSTM (MiB) | Composed WFST (MiB) | WFST share % (paper: 87-97%)");
    for task in &b.tasks {
        let sizes = task.sizes();
        let share = 100.0 * sizes.composed_mib / (sizes.composed_mib + sizes.backend_mib);
        p.row(&[
            task.name().into(),
            fmt2(sizes.backend_mib),
            fmt2(sizes.composed_mib),
            fmt1(share),
        ]);
    }
}

/// Decodes `task` once into a trace. The trace does not depend on the
/// accelerator configuration, so the cache and OLT sweeps replay one
/// recording through every configuration. Returns it with the audio
/// seconds decoded.
fn record_trace(task: &TaskRun) -> (TraceRecorder, f64) {
    let decoder = OtfDecoder::new(DecodeConfig::default());
    let mut trace = TraceRecorder::new();
    let mut audio = 0.0;
    for utt in &task.utterances {
        decoder.decode(
            &task.system.am_comp,
            &task.system.lm_comp,
            &utt.scores,
            &mut trace,
        );
        audio += utt.audio_seconds();
    }
    (trace, audio)
}

/// Figure 6: cache miss ratio vs capacity for the State, AM-arc,
/// LM-arc, and Token caches.
///
/// The paper sweeps 32 KB - 1 MB on the full-size models; the
/// reproduction's datasets are ~75x smaller, so the sweep covers a
/// proportionally smaller range (1-64 KiB) — the curve *shape* (misses
/// collapse once the working set fits; token misses stay compulsory) is
/// the result.
pub fn fig06_cache_miss_sweep(b: &Bench, p: &mut Page) {
    p.line("# Figure 6 — miss ratio (%) vs cache capacity\n");
    let task = b.first();
    p.line(format!("Task: {}\n", task.name()));

    let (trace, audio) = record_trace(task);
    p.header("Capacity KiB | State | AM arc | LM arc | Token");
    for kib in [1u64, 2, 4, 8, 16, 32, 64] {
        let mut cfg = AcceleratorConfig::unfold();
        cfg.state_cache = CacheConfig::kib(kib, 4, 64);
        cfg.am_arc_cache = CacheConfig::kib(kib, 8.min(kib as usize * 16), 64);
        cfg.lm_arc_cache = Some(CacheConfig::kib(kib, 4, 64));
        cfg.token_cache = CacheConfig::kib(kib, 2, 64);
        let mut accel = Accelerator::new(cfg);
        trace.replay(&mut accel);
        let sim = accel.finish(audio);
        p.row(&[
            kib.to_string(),
            fmt1(sim.state_cache.miss_ratio() * 100.0),
            fmt1(sim.am_arc_cache.miss_ratio() * 100.0),
            fmt1(sim.lm_arc_cache.miss_ratio() * 100.0),
            fmt1(sim.token_cache.miss_ratio() * 100.0),
        ]);
    }
    p.line("\nPaper shape: state/arc misses fall below 1% once capacity covers");
    p.line("the working set; token misses flatten at compulsory-miss levels.");
}

/// Figure 7: Offset Lookup Table capacity vs miss ratio and speedup.
pub fn fig07_offset_table(b: &Bench, p: &mut Page) {
    p.line("# Figure 7 — Offset Lookup Table size vs miss ratio / speedup\n");
    let task = b.last(); // EESEN: most LM traffic
    p.line(format!("Task: {}\n", task.name()));

    // Scaled-machine methodology (see DESIGN.md): capacities shrink by
    // the dataset scale factor so the LM working set exceeds its cache,
    // as at full scale — otherwise every probe hits and the OLT's DRAM
    // savings are invisible.
    const SCALE: u64 = 32;

    let (trace, audio) = record_trace(task);
    let simulate = |entries: Option<usize>| {
        let mut cfg = AcceleratorConfig::unfold().scaled_datasets(SCALE);
        cfg.offset_table_entries = entries;
        let mut accel = Accelerator::new(cfg);
        trace.replay(&mut accel);
        accel.finish(audio)
    };

    // Reference: no OLT at all.
    let base = simulate(None);
    p.line(format!(
        "LM arc fetches without OLT: {}\n",
        base.lm_fetches_charged
    ));
    p.header("OLT entries | Miss ratio % | LM fetches eliminated % | Speedup vs no-OLT");
    for entries in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let sim = simulate(Some(entries));
        p.row(&[
            entries.to_string(),
            fmt1(sim.olt.miss_ratio() * 100.0),
            fmt1((1.0 - sim.lm_fetches_charged as f64 / base.lm_fetches_charged as f64) * 100.0),
            format!("{:.3}", base.cycles as f64 / sim.cycles as f64),
        ]);
    }
    p.line("\nPaper shape: bigger tables miss less and speed up the search;");
    p.line("the paper picks 32K entries (192 KB) at ~1.3x over small tables.");
}

/// Figure 8: dataset sizes under the four storage configurations, and
/// the paper's headline 31x / 8.8x reductions.
pub fn fig08_memory_footprint(b: &Bench, p: &mut Page) {
    p.line("# Figure 8 — memory footprint of the four configurations (MiB)\n");
    p.header("Task | Fully-Composed | Fully-Composed+Comp | On-the-fly | On-the-fly+Comp (UNFOLD) | Reduction");
    let mut reductions = Vec::new();
    for task in &b.tasks {
        let s = task.sizes();
        let red = s.reduction_vs_composed();
        reductions.push(red);
        p.row(&[
            task.name().into(),
            fmt2(s.composed_mib),
            fmt2(s.composed_comp_mib),
            fmt2(s.on_the_fly_mib()),
            fmt2(s.unfold_mib()),
            format!("{:.1}x", red),
        ]);
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let min = reductions.iter().copied().fold(f64::INFINITY, f64::min);
    let max = reductions.iter().copied().fold(0.0, f64::max);
    p.line(format!(
        "\nReduction vs Fully-Composed: avg {:.1}x (paper {:.0}x), range {:.1}-{:.1}x (paper 23.3-34.7x).",
        avg,
        paper::REDUCTION_VS_COMPOSED,
        min,
        max
    ));
}

/// Figure 9: Viterbi-search energy per second of speech on the Tegra
/// X1, the Reza et al. baseline, and UNFOLD.
pub fn fig09_search_energy(b: &Bench, p: &mut Page) {
    p.line("# Figure 9 — search energy (mJ per second of speech)\n");
    p.header("Task | Tegra X1 | Reza et al. | UNFOLD | UNFOLD saving vs Reza");
    let mut savings = Vec::new();
    for task in &b.tasks {
        let gpu = task.gpu();
        let reza = task.baseline();
        let unf = task.unfold();
        let saving = (1.0
            - unf.sim.energy_mj_per_audio_second() / reza.sim.energy_mj_per_audio_second())
            * 100.0;
        savings.push(saving);
        p.row(&[
            task.name().into(),
            format!("{:.2}", gpu.search_energy_mj / gpu.audio_seconds),
            format!("{:.4}", reza.sim.energy_mj_per_audio_second()),
            format!("{:.4}", unf.sim.energy_mj_per_audio_second()),
            format!("{:.0}%", saving),
        ]);
    }
    let avg = savings.iter().sum::<f64>() / savings.len() as f64;
    p.line(format!(
        "\nAverage energy saving vs baseline: {:.0}% measured (paper {:.0}%).",
        avg,
        paper::ENERGY_SAVINGS_PCT
    ));
    p.line("GPU energy is orders of magnitude above both accelerators, as in the paper.");
}

/// Figure 10: average power dissipation breakdown, UNFOLD vs the
/// baseline accelerator.
pub fn fig10_power_breakdown(b: &Bench, p: &mut Page) {
    p.line("# Figure 10 — power breakdown (mW, averaged over decode time)\n");
    let task = b.first();
    p.line(format!("Task: {}\n", task.name()));
    // Energy is in mJ and time in s, so mJ/s is mW directly.
    let (u, r) = (&task.unfold().sim, &task.baseline().sim);
    p.header("Component | UNFOLD mW | Reza et al. mW");
    let mw = |name, part: fn(&ComponentEnergy) -> f64| {
        (
            name,
            part(&u.energy) / u.seconds,
            part(&r.energy) / r.seconds,
        )
    };
    let rows = [
        mw("State cache", |e| e.state_cache),
        mw("Arc cache(s)", |e| e.am_arc_cache + e.lm_arc_cache),
        mw("Token cache", |e| e.token_cache),
        mw("Hash tables", |e| e.hash),
        mw("Offset lookup table", |e| e.offset_table),
        mw("Pipeline", |e| e.pipeline),
        mw("Main memory (dynamic)", |e| e.dram),
        mw("Static (leakage + DRAM background)", |e| e.static_energy),
    ];
    for (name, a, b) in rows {
        p.row(&[name.into(), format!("{a:.1}"), format!("{b:.1}")]);
    }
    let ut: f64 = rows.iter().map(|x| x.1).sum();
    let rt: f64 = rows.iter().map(|x| x.2).sum();
    p.row(&["TOTAL".into(), format!("{ut:.1}"), format!("{rt:.1}")]);
    p.line("\nPaper shape: main memory dominates and shrinks under UNFOLD; the");
    p.line("OLT is a small overhead; UNFOLD dissipates less overall.");
    let olt_share = u.energy.offset_table / u.energy.total() * 100.0;
    p.line(format!(
        "Measured OLT share of UNFOLD power: {olt_share:.1}% (paper: 5%)."
    ));
}

/// States / arcs / tokens main-memory bandwidth of one run, MB/s.
fn bandwidth_split(sim: &SimReport) -> (f64, f64, f64) {
    let to_mb = |bursts: u64| bursts as f64 * 64.0 / 1e6 / sim.seconds;
    (
        to_mb(sim.traffic.state_bursts),
        to_mb(sim.traffic.arc_bursts()),
        to_mb(sim.traffic.token_bursts + sim.traffic.hash_bursts),
    )
}

/// Figure 11: main-memory bandwidth usage (states / arcs / tokens) for
/// the baseline and UNFOLD.
pub fn fig11_bandwidth(b: &Bench, p: &mut Page) {
    p.line("# Figure 11 — memory bandwidth usage (MB/s): states / arcs / tokens\n");
    p.header("Task | Reza states | Reza arcs | Reza tokens | Reza total | UNFOLD states | UNFOLD arcs | UNFOLD tokens | UNFOLD total | Saving");
    let mut savings = Vec::new();
    for task in &b.tasks {
        let reza = task.baseline();
        let unf = task.unfold();
        let (rs, ra, rt) = bandwidth_split(&reza.sim);
        let (us, ua, ut) = bandwidth_split(&unf.sim);
        let saving = (1.0 - unf.sim.bandwidth_mb_per_s() / reza.sim.bandwidth_mb_per_s()) * 100.0;
        savings.push(saving);
        p.row(&[
            task.name().into(),
            format!("{rs:.0}"),
            format!("{ra:.0}"),
            format!("{rt:.0}"),
            format!("{:.0}", reza.sim.bandwidth_mb_per_s()),
            format!("{us:.0}"),
            format!("{ua:.0}"),
            format!("{ut:.0}"),
            format!("{:.0}", unf.sim.bandwidth_mb_per_s()),
            format!("{saving:.0}%"),
        ]);
    }
    let avg = savings.iter().sum::<f64>() / savings.len() as f64;
    p.line(format!(
        "\nAverage bandwidth saving: {:.0}% measured (paper {:.0}%).",
        avg,
        paper::BANDWIDTH_REDUCTION_PCT
    ));
}

/// Figure 12: overall ASR-system decoding time (acoustic scoring on the
/// GPU + search on each platform).
pub fn fig12_overall_time(b: &Bench, p: &mut Page) {
    p.line("# Figure 12 — overall ASR decode time per second of speech (ms)\n");
    p.header("Task | Tegra X1 only | GPU + Reza | GPU + UNFOLD | Speedup vs GPU");
    let gpu_model = GpuModel::default();
    let mut speedups = Vec::new();
    for task in &b.tasks {
        let gpu = task.gpu();
        let reza = task.baseline();
        let unf = task.unfold();
        let frames = (gpu.audio_seconds * 100.0) as usize;
        let gpu_only = gpu.total_seconds();
        // §5.2 batch pipeline: 100-frame (1 s) batches through the
        // shared score buffer.
        let batches = (frames / 100).max(1);
        let scoring_per_batch =
            gpu_model.scoring_seconds(&task.system.spec.backend, frames) / batches as f64;
        let hybrid_reza = batch_pipeline(
            scoring_per_batch,
            reza.sim.seconds / batches as f64,
            batches,
        )
        .makespan_s;
        let hybrid_unfold =
            batch_pipeline(scoring_per_batch, unf.sim.seconds / batches as f64, batches).makespan_s;
        let per_s = 1e3 / gpu.audio_seconds;
        let speedup = gpu_only / hybrid_unfold;
        speedups.push(speedup);
        p.row(&[
            task.name().into(),
            format!("{:.2}", gpu_only * per_s),
            format!("{:.2}", hybrid_reza * per_s),
            format!("{:.2}", hybrid_unfold * per_s),
            format!("{speedup:.1}x"),
        ]);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    p.line(format!(
        "\nAverage overall speedup vs GPU-only: {:.1}x measured (paper ~{:.1}x);",
        avg,
        paper::OVERALL_SPEEDUP_VS_GPU
    ));
    p.line("the two hybrid systems perform similarly, as in the paper.");
}

/// Figure 13: overall ASR-system energy (scoring on GPU + search on
/// each platform).
pub fn fig13_overall_energy(b: &Bench, p: &mut Page) {
    p.line("# Figure 13 — overall ASR energy per second of speech (mJ)\n");
    p.header("Task | Tegra X1 only | GPU + Reza | GPU + UNFOLD | Reduction vs GPU");
    let mut reductions = Vec::new();
    for task in &b.tasks {
        let gpu = task.gpu();
        let reza = task.baseline();
        let unf = task.unfold();
        let audio = gpu.audio_seconds;
        let gpu_only = (gpu.search_energy_mj + gpu.scoring_energy_mj) / audio;
        let hybrid_reza = (gpu.scoring_energy_mj + reza.sim.total_energy_mj()) / audio;
        let hybrid_unfold = (gpu.scoring_energy_mj + unf.sim.total_energy_mj()) / audio;
        let red = gpu_only / hybrid_unfold;
        reductions.push(red);
        p.row(&[
            task.name().into(),
            format!("{gpu_only:.2}"),
            format!("{hybrid_reza:.2}"),
            format!("{hybrid_unfold:.2}"),
            format!("{red:.1}x"),
        ]);
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    p.line(format!(
        "\nAverage overall energy reduction vs GPU-only: {:.1}x measured (paper ~{:.1}x);",
        avg,
        paper::OVERALL_ENERGY_REDUCTION
    ));
    p.line("after accelerating the search, scoring on the GPU dominates, so the");
    p.line("two hybrid systems land close together — exactly the paper's point.");
}
