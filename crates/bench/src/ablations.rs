//! Ablations of the design choices the paper argues for, one function
//! each.

use unfold::experiments::{run_unfold, run_unfold_configured};
use unfold::{System, TaskSpec};
use unfold_compress::{CompressedAm, CompressedLm};
use unfold_decoder::{
    wer, DecodeConfig, DecodeStats, LinearLm, NullSink, OtfDecoder, TwoPassDecoder, WerReport,
};
use unfold_sim::{Accelerator, AcceleratorConfig, CacheConfig};

use crate::harness::{Bench, Page};
use crate::paper;

/// §2 / §5.1 ablation: the LM arc-location ladder.
///
/// Linear search (paper: 10x slowdown) → sorted arcs + binary search
/// (3x) → binary search + Offset Lookup Table + preemptive pruning
/// (1.18x, the shipped design). We report simulated cycles per audio
/// second for each strategy, normalized to the best configuration; at
/// reproduction scale the absolute factors are smaller (LM states have
/// ~50 arcs instead of thousands) but the ordering is the result.
pub fn ablation_lm_lookup(b: &Bench, p: &mut Page) {
    p.line("# Ablation — LM arc-location strategy\n");
    let task = b.last(); // EESEN: most LM traffic
    p.line(format!("Task: {}\n", task.name()));
    let s = &task.system;

    // Scaled-machine configs (see DESIGN.md) so LM fetches actually
    // miss, as they do at full scale.
    const SCALE: u64 = 32;
    let no_preempt = DecodeConfig::builder()
        .preemptive_pruning(false)
        .build()
        .expect("valid ablation config");
    let mut no_olt = AcceleratorConfig::unfold().scaled_datasets(SCALE);
    no_olt.offset_table_entries = None;

    // Linear search, no OLT, no preemptive pruning.
    let mut accel = Accelerator::new(no_olt);
    let dec = OtfDecoder::new(no_preempt);
    let mut audio = 0.0;
    for utt in &task.utterances {
        dec.decode(&s.am_comp, &LinearLm(&s.lm_fst), &utt.scores, &mut accel);
        audio += utt.audio_seconds();
    }
    let linear_rep = accel.finish(audio);
    let linear = linear_rep.cycles as f64;

    // Binary search, no OLT, no preemptive pruning.
    let mut accel = Accelerator::new(no_olt);
    for utt in &task.utterances {
        dec.decode(&s.am_comp, &s.lm_comp, &utt.scores, &mut accel);
    }
    let binary_rep = accel.finish(audio);
    let binary = binary_rep.cycles as f64;

    // Binary + OLT + preemptive pruning (the shipped UNFOLD).
    let mut accel = Accelerator::new(AcceleratorConfig::unfold().scaled_datasets(SCALE));
    let dec_full = OtfDecoder::new(DecodeConfig::default());
    for utt in &task.utterances {
        dec_full.decode(&s.am_comp, &s.lm_comp, &utt.scores, &mut accel);
    }
    let full_rep = accel.finish(audio);
    let full = full_rep.cycles as f64;

    p.header("Strategy | Cycles (norm.) | LM arc fetches | Paper slowdown vs baseline");
    p.row(&[
        "linear search".into(),
        format!("{:.2}", linear / full),
        linear_rep.lm_fetches_charged.to_string(),
        format!("{:.1}x", paper::LINEAR_SEARCH_SLOWDOWN),
    ]);
    p.row(&[
        "binary search".into(),
        format!("{:.2}", binary / full),
        binary_rep.lm_fetches_charged.to_string(),
        format!("{:.1}x", paper::BINARY_SEARCH_SLOWDOWN),
    ]);
    p.row(&[
        "binary + OLT + preemptive pruning".into(),
        "1.00".into(),
        full_rep.lm_fetches_charged.to_string(),
        format!("{:.2}x", paper::FINAL_SLOWDOWN),
    ]);
    assert!(
        linear >= binary && binary >= full,
        "ladder ordering must hold"
    );
    assert!(
        linear_rep.lm_fetches_charged > binary_rep.lm_fetches_charged
            && binary_rep.lm_fetches_charged > full_rep.lm_fetches_charged,
        "fetch-count ladder must hold"
    );
    p.line("\nOrdering preserved (cycles and fetch counts):");
    p.line("linear > binary > binary+OLT+pruning. At reproduction scale the");
    p.line("compressed LM is nearly cache-resident, so the cycle gap is far");
    p.line("smaller than the paper's full-size 10x/3x/1.18x; the fetch-count");
    p.line("column shows the architectural mechanism at full strength.");
}

/// §3.3 ablation: preemptive pruning in the back-off mechanism.
///
/// Paper: 22.5% of hypotheses pruned, 16.3% performance improvement,
/// with zero accuracy impact (only doomed hypotheses are discarded).
pub fn ablation_preemptive_pruning(b: &Bench, p: &mut Page) {
    p.line("# Ablation — preemptive pruning (§3.3)\n");
    p.header("Task | LM fetches saved % | Hypotheses pruned (of LM walks) % | Cycle speedup % | Words identical");
    for task in &b.tasks {
        let s = &task.system;
        let run = |preempt: bool| {
            let dec = OtfDecoder::new(
                DecodeConfig::builder()
                    .preemptive_pruning(preempt)
                    .build()
                    .expect("valid ablation config"),
            );
            let mut accel = Accelerator::new(AcceleratorConfig::unfold().scaled_datasets(32));
            let mut words = Vec::new();
            let mut stats = DecodeStats::default();
            let mut audio = 0.0;
            for utt in &task.utterances {
                let r = dec.decode(&s.am_comp, &s.lm_comp, &utt.scores, &mut accel);
                words.push(r.words);
                stats.lm_fetches += r.stats.lm_fetches;
                stats.lm_lookups += r.stats.lm_lookups;
                stats.preemptive_prunes += r.stats.preemptive_prunes;
                audio += utt.audio_seconds();
            }
            (accel.finish(audio).cycles, stats, words)
        };
        let (c_on, s_on, w_on) = run(true);
        let (c_off, s_off, w_off) = run(false);
        let fetch_saved = (1.0 - s_on.lm_fetches as f64 / s_off.lm_fetches.max(1) as f64) * 100.0;
        let pruned_pct = 100.0 * s_on.preemptive_prunes as f64 / s_on.lm_lookups.max(1) as f64;
        let speedup = (c_off as f64 / c_on as f64 - 1.0) * 100.0;
        p.row(&[
            task.name().into(),
            format!("{fetch_saved:.1}"),
            format!("{pruned_pct:.1}"),
            format!("{speedup:.2}"),
            (w_on == w_off).to_string(),
        ]);
    }
    p.line(format!(
        "\nPaper: {:.1}% of hypotheses pruned, {:.1}% speedup, no accuracy change.",
        paper::PREEMPTIVE_PRUNED_PCT,
        paper::PREEMPTIVE_SPEEDUP_PCT
    ));
    p.line("(At reproduction scale back-off walks are shorter, so the measured");
    p.line("magnitudes are smaller; correctness-neutrality is exact.)");
}

/// §3.4 ablation: K-means weight-quantization cluster count.
///
/// The paper picks K = 64 (6-bit indices) and reports < 0.01% WER
/// impact. Sweeping K shows the size/accuracy trade-off.
pub fn ablation_quantization(b: &Bench, p: &mut Page) {
    p.line("# Ablation — weight quantization clusters (paper: K=64)\n");
    let task = b.first();
    p.line(format!("Task: {}\n", task.name()));
    let s = &task.system;
    // Reference decode on unquantized models.
    let reference = task.wer_with(&s.am.fst, &s.lm_fst);

    p.header("K | index bits | AM+LM KiB | WER % | WER delta vs float");
    for k in [4usize, 8, 16, 32, 64] {
        let am = CompressedAm::compress(&s.am.fst, k, s.spec.seed);
        let lm = CompressedLm::compress(&s.lm_fst, k, s.spec.seed);
        let rep = task.wer_with(&am, &lm);
        p.row(&[
            k.to_string(),
            format!("{}", (usize::BITS - (k - 1).leading_zeros()).max(1)),
            format!("{}", (am.size_bytes() + lm.size_bytes()) / 1024),
            format!("{:.2}", rep.percent()),
            format!("{:+.2}", rep.percent() - reference.percent()),
        ]);
    }
    p.line("\nPaper claim: K=64 changes WER by < 0.01%.");
}

/// §3.1 ablation: dedicated LM arc cache vs routing LM fetches through
/// the AM arc cache ("we found it beneficial for performance to have a
/// dedicated cache for this task").
pub fn ablation_cache_split(b: &Bench, p: &mut Page) {
    p.line("# Ablation — split AM/LM arc caches vs a unified arc cache\n");
    p.header("Task | Split cycles | Unified cycles | Split advantage % | LM miss % (split)");
    for task in &b.tasks {
        // Scaled-machine configs so the arc working sets exceed the
        // caches, as at full scale.
        // Split: UNFOLD default geometry (16x AM + 1x LM after scaling).
        let split_cfg = AcceleratorConfig::unfold().scaled_datasets(32);
        // Unified: one arc cache of the combined size serving both.
        let mut unified_cfg = AcceleratorConfig::unfold().scaled_datasets(32);
        let combined = split_cfg.am_arc_cache.capacity_bytes
            + split_cfg.lm_arc_cache.map_or(0, |c| c.capacity_bytes);
        unified_cfg.am_arc_cache = CacheConfig::kib(combined / 1024, 8, 64);
        unified_cfg.lm_arc_cache = None;
        let a = run_unfold_configured(
            &task.system,
            &task.utterances,
            split_cfg,
            DecodeConfig::default(),
        );
        let b = run_unfold_configured(
            &task.system,
            &task.utterances,
            unified_cfg,
            DecodeConfig::default(),
        );
        p.row(&[
            task.name().into(),
            a.sim.cycles.to_string(),
            b.sim.cycles.to_string(),
            format!(
                "{:+.2}",
                (b.sim.cycles as f64 / a.sim.cycles as f64 - 1.0) * 100.0
            ),
            format!("{:.1}", a.sim.lm_arc_cache.miss_ratio() * 100.0),
        ]);
    }
    p.line("\nThe paper keeps the split because the two streams are disjoint and");
    p.line("the LM stream needs its own port; with a shared cache LM probes");
    p.line("contend with the AM pipeline.");
}

/// §6 ablation: one-pass on-the-fly composition (UNFOLD's choice) vs a
/// two-pass pipeline (AM search with a weak unigram LM, then full-LM
/// rescoring of the n-best list).
///
/// The paper: "the rescoring phase of the two-pass method cannot be
/// executed until the end of AM search, \[so\] it typically leads to
/// larger latencies ... we selected the one-pass approach".
pub fn ablation_two_pass(b: &Bench, p: &mut Page) {
    p.line("# Ablation — one-pass vs two-pass on-the-fly decoding (§6)\n");
    p.header("Task | One-pass WER % | Two-pass WER % (n=8) | Avg candidates | Post-utterance LM evals/utt");
    for task in &b.tasks {
        let s = &task.system;
        let one_dec = OtfDecoder::new(DecodeConfig::default());
        let two_dec = TwoPassDecoder::new(DecodeConfig::default(), 8);
        let mut one = WerReport::default();
        let mut two = WerReport::default();
        let mut cands = 0usize;
        let mut evals = 0u64;
        for utt in &task.utterances {
            let r1 = one_dec.decode(&s.am_comp, &s.lm_comp, &utt.scores, &mut NullSink);
            one.accumulate(wer(&utt.words, &r1.words));
            let r2 = two_dec.decode(&s.am_comp, &s.lm_model, &utt.scores, &mut NullSink);
            two.accumulate(wer(&utt.words, &r2.result.words));
            cands += r2.num_candidates;
            evals += r2.rescoring_evals;
        }
        let n = task.utterances.len();
        p.row(&[
            task.name().into(),
            format!("{:.2}", one.percent()),
            format!("{:.2}", two.percent()),
            format!("{:.1}", cands as f64 / n as f64),
            format!("{:.0}", evals as f64 / n as f64),
        ]);
    }
    p.line("\nOne-pass integrates the full LM during the beam search, so it never");
    p.line("trails two-pass accuracy, and all its LM work overlaps the search —");
    p.line("the two-pass column's LM evaluations all land after the utterance");
    p.line("ends, which is the latency penalty the paper cites for rejecting it.");
}

/// §2's pruning trade-off: beam width vs accuracy, search effort, and
/// accelerator speed. "Due to the large search space, pruning of the
/// search graph is also applied to discard unlikely hypotheses."
pub fn ablation_beam_sweep(b: &Bench, p: &mut Page) {
    p.line("# Ablation — beam width vs WER / effort / speed\n");
    let task = b.first();
    p.line(format!("Task: {}\n", task.name()));
    p.header("Beam | WER % | Mean active tokens | Tokens created | xRT");
    for beam in [2.0f32, 4.0, 6.0, 8.0, 11.0, 14.0, 18.0] {
        let run = run_unfold_configured(
            &task.system,
            &task.utterances,
            AcceleratorConfig::unfold(),
            DecodeConfig::builder()
                .beam(beam)
                .build()
                .expect("valid ablation config"),
        );
        p.row(&[
            format!("{beam}"),
            format!("{:.2}", run.wer.percent()),
            format!("{:.0}", run.stats.mean_active()),
            run.stats.tokens_created.to_string(),
            format!("{:.0}", run.sim.times_real_time()),
        ]);
    }
    p.line("\nShape: WER saturates once the beam covers the true hypothesis;");
    p.line("search effort (and decode time) keeps growing — the knee is where");
    p.line("production decoders operate.");
}

/// Methodology cross-check: the calibrated score-table synthesizer vs
/// the real GMM front-end.
///
/// The reproduction's WER numbers come from a controlled error model
/// (DESIGN.md §2). This ablation re-runs a task with an actual
/// diagonal-covariance GMM — features sampled per frame, likelihoods
/// computed with real arithmetic — and shows the same qualitative
/// behavior: near-zero WER when PDFs are separable, graceful
/// degradation as they overlap, and identical system-level orderings.
pub fn ablation_scoring_substrate(_: &Bench, p: &mut Page) {
    p.line("# Ablation — score-table synthesis vs real GMM front-end\n");
    let base = TaskSpec::tiny();
    p.header("Scoring substrate | WER % | xRT | LM lookups | Audio s");

    let table_sys = System::build(&base);
    let utts = table_sys.test_utterances(6);
    let table_run = run_unfold(&table_sys, &utts);
    p.row(&[
        "calibrated table (default)".into(),
        format!("{:.2}", table_run.wer.percent()),
        format!("{:.0}", table_run.sim.times_real_time()),
        table_run.stats.lm_lookups.to_string(),
        format!("{:.2}", table_run.audio_seconds),
    ]);

    for (label, separation) in [
        ("real GMM, separation 5.0", 5.0f32),
        ("real GMM, separation 0.5", 0.5),
        ("real GMM, separation 0.2", 0.2),
    ] {
        let spec = base.with_real_gmm(12, 2, separation);
        let sys = System::build(&spec);
        let utts = sys.test_utterances(6);
        let run = run_unfold(&sys, &utts);
        p.row(&[
            label.into(),
            format!("{:.2}", run.wer.percent()),
            format!("{:.0}", run.sim.times_real_time()),
            run.stats.lm_lookups.to_string(),
            format!("{:.2}", run.audio_seconds),
        ]);
    }
    p.line("\nThe table substrate controls WER exactly (Table 6 calibration);");
    p.line("the GMM substrate produces the same decoding behavior with errors");
    p.line("arising from genuine Gaussian overlap.");
}
