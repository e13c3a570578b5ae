//! The paper's tables and the headline summary, one function each.

use unfold_sim::{AcceleratorConfig, GpuModel};

use crate::harness::{fmt1, fmt2, paper_cell, Bench, Page};
use crate::paper;

/// Table 1: sizes of the individual AM and LM WFSTs vs the
/// fully-composed WFST.
pub fn table1_wfst_sizes(b: &Bench, p: &mut Page) {
    p.line("# Table 1 — AM / LM / composed WFST sizes\n");
    p.line("(absolute values are ~75x scaled; the explosion *ratio* is the result)\n");
    p.header("Task | AM MiB | LM MiB | Composed MiB | Composed/(AM+LM) measured | Composed/(AM+LM) paper");
    for task in &b.tasks {
        let s = task.sizes();
        let measured = s.composed_mib / s.on_the_fly_mib();
        let paper_ratio = paper::task_index(task.name()).map(|i| {
            paper::TABLE1_COMPOSED_MB[i] / (paper::TABLE1_AM_MB[i] + paper::TABLE1_LM_MB[i])
        });
        p.row(&[
            task.name().into(),
            fmt2(s.am_mib),
            fmt2(s.lm_mib),
            fmt2(s.composed_mib),
            fmt1(measured),
            paper_cell(paper_ratio, fmt1),
        ]);
    }
}

/// Table 2: compressed WFST sizes, on-the-fly vs fully-composed, and
/// the paper's 8.8x advantage of the split models.
pub fn table2_compressed_sizes(b: &Bench, p: &mut Page) {
    p.line("# Table 2 — compressed sizes: on-the-fly vs fully-composed\n");
    p.header("Task | On-the-fly+Comp MiB | Fully-Composed+Comp MiB | Advantage measured | Advantage paper");
    let mut ratios = Vec::new();
    for task in &b.tasks {
        let s = task.sizes();
        let adv = s.reduction_vs_composed_comp();
        ratios.push(adv);
        let paper_adv = paper::task_index(task.name())
            .map(|i| paper::TABLE2_FULL_COMP_MB[i] / paper::TABLE2_OTF_COMP_MB[i]);
        p.row(&[
            task.name().into(),
            fmt2(s.unfold_mib()),
            fmt2(s.composed_comp_mib),
            fmt1(adv),
            paper_cell(paper_adv, fmt1),
        ]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    p.line(format!(
        "\nAverage advantage: {:.1}x measured vs {:.1}x paper.",
        avg,
        paper::REDUCTION_VS_COMPOSED_COMP
    ));
}

/// Writes one accelerator configuration as a Markdown list.
fn print_config(p: &mut Page, c: &AcceleratorConfig) {
    p.line(format!("## {}", c.name));
    p.line(format!("- frequency: {} MHz", c.frequency_mhz));
    let kib = |b: u64| b / 1024;
    p.line(format!(
        "- state cache: {} KiB, {}-way, {} B lines",
        kib(c.state_cache.capacity_bytes),
        c.state_cache.ways,
        c.state_cache.line_bytes
    ));
    p.line(format!(
        "- arc cache (AM/composed): {} KiB, {}-way",
        kib(c.am_arc_cache.capacity_bytes),
        c.am_arc_cache.ways
    ));
    match c.lm_arc_cache {
        Some(l) => p.line(format!(
            "- LM arc cache: {} KiB, {}-way",
            kib(l.capacity_bytes),
            l.ways
        )),
        None => p.line("- LM arc cache: (none)"),
    }
    p.line(format!(
        "- token cache: {} KiB, {}-way",
        kib(c.token_cache.capacity_bytes),
        c.token_cache.ways
    ));
    p.line(format!(
        "- acoustic likelihood buffer: {} KiB",
        kib(c.acoustic_buffer_bytes)
    ));
    p.line(format!(
        "- hash tables: {} entries, {} KiB",
        c.hash_entries,
        kib(c.hash_entries as u64 * c.hash_entry_bytes)
    ));
    match c.offset_table_entries {
        Some(e) => p.line(format!(
            "- offset lookup table: {} entries, {} KiB",
            e,
            kib(e as u64 * 6)
        )),
        None => p.line("- offset lookup table: (none)"),
    }
    p.line(format!(
        "- memory controller: {} in-flight requests",
        c.max_inflight
    ));
    p.line(format!("- total SRAM: {} KiB", kib(c.sram_bytes())));
    p.line(format!("- estimated area: {:.1} mm2", c.area_mm2()));
    p.line("");
}

/// Table 3: accelerator configuration parameters, plus the area
/// estimates of §5.1.
pub fn table3_configs(_: &Bench, p: &mut Page) {
    p.line("# Table 3 — accelerator configurations\n");
    let u = AcceleratorConfig::unfold();
    let r = AcceleratorConfig::reza();
    print_config(p, &u);
    print_config(p, &r);
    let reduction = (r.area_mm2() - u.area_mm2()) / r.area_mm2() * 100.0;
    p.line(format!(
        "Area: UNFOLD {:.1} mm2 (paper {:.1}), reduction vs baseline {:.0}% (paper {:.0}%).",
        u.area_mm2(),
        paper::UNFOLD_AREA_MM2,
        reduction,
        paper::AREA_REDUCTION_PCT
    ));
}

/// Table 4: GPU configuration parameters — the Tegra X1 the paper's
/// software baselines run on, next to this reproduction's analytic
/// model constants.
pub fn table4_gpu_config(_: &Bench, p: &mut Page) {
    p.line("# Table 4 — GPU configuration\n");
    p.line("## Paper (NVIDIA Tegra X1, measured hardware)\n");
    p.header("Parameter | Value");
    p.row(&[
        "Streaming multiprocessors".into(),
        "2 (2,048 threads each)".into(),
    ]);
    p.row(&["Technology".into(), "20 nm".into()]);
    p.row(&["Frequency".into(), "1.0 GHz".into()]);
    p.row(&["Level-2 cache".into(), "256 KiB".into()]);
    p.line("\n## This reproduction (analytic model; see `unfold_sim::gpu`)\n");
    let g = GpuModel::default();
    p.header("Parameter | Value");
    p.row(&[
        "Viterbi cost".into(),
        format!("{} µs per created token", g.viterbi_us_per_token),
    ]);
    p.row(&["Viterbi power".into(), format!("{} W", g.viterbi_power_w)]);
    p.row(&[
        "DNN scoring throughput".into(),
        format!("{:.0} GFLOP/s sustained", g.dnn_flops_per_s / 1e9),
    ]);
    p.row(&[
        "GMM scoring throughput".into(),
        format!("{:.0} GFLOP/s sustained", g.gmm_flops_per_s / 1e9),
    ]);
    p.row(&[
        "LSTM scoring throughput".into(),
        format!("{:.1} GFLOP/s sustained", g.lstm_flops_per_s / 1e9),
    ]);
    p.row(&["Scoring power".into(), format!("{} W", g.scoring_power_w)]);
    p.line("\nThe hardware parameters are replaced by sustained-rate constants");
    p.line("calibrated to the paper's own reported breakdowns (Figure 1, §5.1);");
    p.line("DESIGN.md §2 documents the substitution.");
}

/// Table 5: maximum and average decoding time per utterance across
/// the three platforms.
pub fn table5_decode_latency(b: &Bench, p: &mut Page) {
    p.line("# Table 5 — decode latency per utterance (ms)\n");
    p.line("(absolute latencies track the ~75x workload scale; orderings are the result)\n");
    p.header("Task | Tegra max | Tegra avg | Reza max | Reza avg | UNFOLD max | UNFOLD avg");
    for task in &b.tasks {
        let gpu = task.gpu();
        let reza = task.baseline();
        let unf = task.unfold();
        let gmax = gpu
            .per_utterance_seconds
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            * 1e3;
        let gavg = gpu.per_utterance_seconds.iter().sum::<f64>()
            / gpu.per_utterance_seconds.len() as f64
            * 1e3;
        p.row(&[
            task.name().into(),
            format!("{gmax:.2}"),
            format!("{gavg:.2}"),
            format!("{:.3}", reza.max_latency_ms()),
            format!("{:.3}", reza.avg_latency_ms()),
            format!("{:.3}", unf.max_latency_ms()),
            format!("{:.3}", unf.avg_latency_ms()),
        ]);
    }
    p.line(format!(
        "\nPaper (full scale) averages, ms: Tegra {:?}, Reza {:?}, UNFOLD {:?}.",
        paper::TABLE5_TEGRA_AVG_MS,
        paper::TABLE5_REZA_AVG_MS,
        paper::TABLE5_UNFOLD_AVG_MS
    ));
    p.line("Both accelerators answer orders of magnitude faster than the GPU.");
}

/// Table 6: word error rate per task, plus the quantization-impact
/// check (paper: the compressed models change WER by < 0.01%).
pub fn table6_wer(b: &Bench, p: &mut Page) {
    p.line("# Table 6 — word error rate (%)\n");
    p.header("Task | WER paper | WER measured (UNFOLD) | WER uncompressed models | Delta");
    for task in &b.tasks {
        let comp = task.unfold();
        // Same decode against the *uncompressed* models: quantization impact.
        let plain = task.wer_with(&task.system.am.fst, &task.system.lm_fst);
        let paper_wer = paper::task_index(task.name()).map(|i| paper::TABLE6_WER[i]);
        p.row(&[
            task.name().into(),
            paper_cell(paper_wer, fmt2),
            fmt2(comp.wer.percent()),
            fmt2(plain.percent()),
            fmt2((comp.wer.percent() - plain.percent()).abs()),
        ]);
    }
    p.line("\nPaper claim: compression/quantization adds < 0.01% WER.");
}

/// One-stop summary: the paper's abstract-level claims, measured.
pub fn overall_summary(b: &Bench, p: &mut Page) {
    p.line("# UNFOLD reproduction — headline summary\n");
    p.header("Claim | Paper | Measured (scaled tasks)");
    let mut red = Vec::new();
    let mut red_comp = Vec::new();
    let mut energy_save = Vec::new();
    let mut bw_save = Vec::new();
    let mut dataset_red = Vec::new();
    for task in &b.tasks {
        let sizes = task.sizes();
        red.push(sizes.reduction_vs_composed());
        red_comp.push(sizes.reduction_vs_composed_comp());
        let reza = task.baseline();
        let unf = task.unfold();
        energy_save.push(
            (1.0 - unf.sim.energy_mj_per_audio_second() / reza.sim.energy_mj_per_audio_second())
                * 100.0,
        );
        bw_save.push((1.0 - unf.sim.bandwidth_mb_per_s() / reza.sim.bandwidth_mb_per_s()) * 100.0);
        dataset_red.push(
            (sizes.composed_mib + sizes.backend_mib) / (sizes.unfold_mib() + sizes.backend_mib),
        );
    }
    let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    p.row(&[
        "Footprint reduction vs composed".into(),
        format!("{:.0}x", paper::REDUCTION_VS_COMPOSED),
        format!("{:.1}x", avg(&red)),
    ]);
    p.row(&[
        "Footprint reduction vs composed+comp".into(),
        format!("{:.1}x", paper::REDUCTION_VS_COMPOSED_COMP),
        format!("{:.1}x", avg(&red_comp)),
    ]);
    p.row(&[
        "Search energy saving vs baseline".into(),
        format!("{:.0}%", paper::ENERGY_SAVINGS_PCT),
        format!("{:.0}%", avg(&energy_save)),
    ]);
    p.row(&[
        "Memory bandwidth saving".into(),
        format!("{:.0}%", paper::BANDWIDTH_REDUCTION_PCT),
        format!("{:.0}%", avg(&bw_save)),
    ]);
    p.row(&[
        "Whole-dataset reduction (incl. acoustic model)".into(),
        format!("{:.1}x", paper::OVERALL_DATASET_REDUCTION),
        format!("{:.1}x", avg(&dataset_red)),
    ]);
}
