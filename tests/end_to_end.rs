//! End-to-end integration: build a task, decode with every system
//! configuration, and check the paper's qualitative relationships.

use unfold::experiments::{run_baseline_on, run_gpu, run_unfold};
use unfold::{System, TaskSpec};

fn tiny() -> (System, Vec<unfold_am::Utterance>) {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(4);
    (system, utts)
}

#[test]
fn unfold_beats_baseline_on_footprint_energy_bandwidth() {
    let (system, utts) = tiny();
    let composed = system.composed();
    let unf = run_unfold(&system, &utts);
    let reza = run_baseline_on(&system, &composed, &utts);

    // Footprint: the paper's headline (on tiny scale the ratio is
    // smaller but must still be large).
    let sizes = system.sizes();
    assert!(sizes.reduction_vs_composed() > 8.0);
    // Energy and bandwidth: UNFOLD below the baseline.
    assert!(unf.sim.total_energy_mj() < reza.sim.total_energy_mj());
    assert!(unf.sim.dram.total_bytes() < reza.sim.dram.total_bytes());
    // Both accelerators decode faster than real time by a large margin.
    assert!(unf.sim.times_real_time() > 10.0);
    assert!(reza.sim.times_real_time() > 10.0);
}

#[test]
fn accelerators_beat_gpu_by_orders_of_magnitude() {
    let (system, utts) = tiny();
    let unf = run_unfold(&system, &utts);
    let gpu = run_gpu(&system, &utts);
    assert!(gpu.search_seconds > unf.sim.seconds * 5.0);
    assert!(gpu.search_energy_mj > unf.sim.total_energy_mj());
}

#[test]
fn both_systems_transcribe_equally_well() {
    let (system, utts) = tiny();
    let composed = system.composed();
    let unf = run_unfold(&system, &utts);
    let reza = run_baseline_on(&system, &composed, &utts);
    assert!((unf.wer.percent() - reza.wer.percent()).abs() < 5.0);
}

#[test]
fn deterministic_end_to_end() {
    let (sys_a, utts_a) = tiny();
    let (sys_b, utts_b) = tiny();
    let a = run_unfold(&sys_a, &utts_a);
    let b = run_unfold(&sys_b, &utts_b);
    assert_eq!(a.sim.cycles, b.sim.cycles);
    assert_eq!(a.wer, b.wer);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn every_paper_task_spec_builds() {
    // Full builds are exercised by the paper runner (`unfold-bench`); here we verify
    // the specs are internally consistent at reduced size.
    for mut spec in TaskSpec::all_paper_tasks() {
        spec.vocab_size = 120;
        spec.num_sentences = 800;
        let system = System::build(&spec);
        let utts = system.test_utterances(2);
        let run = run_unfold(&system, &utts);
        assert!(run.sim.cycles > 0, "{} produced no work", spec.name);
        assert!(run.wer.ref_words > 0);
    }
}

#[test]
fn clean_presets_transcribe_exactly() {
    // Stronger than the WER bounds above: with the noise knobs zeroed,
    // every synthetic preset must recover the reference transcript
    // *exactly* — any systematic decode error shows up here even when
    // it stays under a WER threshold.
    use unfold_am::NoiseModel;
    use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder};

    let mut specs = TaskSpec::all_paper_tasks();
    specs.push(TaskSpec::tiny());
    for mut spec in specs {
        spec.vocab_size = 120;
        spec.num_sentences = 800;
        spec.scoring = unfold::ScoringSynth::Table;
        spec.noise = NoiseModel {
            noise_sigma: 0.05,
            confusion_prob: 0.0,
            word_confusion_prob: 0.0,
            ..NoiseModel::default()
        };
        let system = System::build(&spec);
        let decoder = OtfDecoder::new(DecodeConfig::default());
        for (i, utt) in system.test_utterances(3).iter().enumerate() {
            let res = decoder.decode(&system.am.fst, &system.lm_fst, &utt.scores, &mut NullSink);
            assert_eq!(
                res.words, utt.words,
                "{} utt {i}: clean decode must be exact",
                spec.name
            );
        }
    }
}

#[test]
fn decode_batch_handles_empty_and_one_frame_batches() {
    use unfold_am::AcousticScores;
    use unfold_decoder::{DecodeConfig, DecodeResult, NullSink, OtfDecoder};

    let (system, utts) = tiny();
    let decoder = OtfDecoder::new(DecodeConfig::default());
    let decode_one =
        |_i: usize, utt: &unfold_am::Utterance, scratch: &mut unfold_decoder::DecodeScratch| {
            decoder.decode_with(
                &system.am_comp,
                &system.lm_comp,
                &utt.scores,
                scratch,
                &mut NullSink,
            )
        };

    // Zero utterances: no workers panic, telemetry stays sane.
    let empty: Vec<unfold_am::Utterance> = Vec::new();
    let (results, pool) = unfold::decode_batch(&empty, 4, decode_one);
    assert!(results.is_empty());
    assert!(pool.workers <= 1, "an empty batch needs no worker pool");

    // A batch containing a 1-frame and a 0-frame utterance decodes
    // without panicking and matches the serial path bit for bit.
    let num_pdfs = utts[0].scores.num_pdfs();
    let one_frame = unfold_am::Utterance {
        words: utts[0].words.clone(),
        alignment: utts[0].alignment.iter().take(1).copied().collect(),
        scores: AcousticScores::from_flat(utts[0].scores.frame(0).to_vec(), num_pdfs),
    };
    let zero_frame = unfold_am::Utterance {
        words: Vec::new(),
        alignment: Vec::new(),
        scores: AcousticScores::from_flat(Vec::new(), num_pdfs),
    };
    let batch = vec![one_frame, zero_frame];
    let (serial, _) = unfold::decode_batch(&batch, 1, decode_one);
    let (parallel, pool) = unfold::decode_batch(&batch, 8, decode_one);
    assert!(pool.workers <= batch.len(), "pool must clamp to batch size");
    let bits = |r: &DecodeResult| (r.words.clone(), r.cost.to_bits(), r.stats);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(bits(a), bits(b));
    }
    assert_eq!(serial[0].stats.frames, 1);
    assert_eq!(serial[1].stats.frames, 0);
    assert!(serial[1].words.is_empty());
}

#[test]
fn bigram_only_grammar_is_supported() {
    // §5.3: "supporting any grammar (bigram, trigram, pentagram...)".
    // Pruning every trigram yields a pure bigram LM; the whole pipeline
    // (WFST conversion, compression, decoding) must still work.
    let mut spec = TaskSpec::tiny();
    spec.discount = unfold_lm::DiscountConfig {
        min_trigram_count: u64::MAX,
        ..Default::default()
    };
    let system = System::build(&spec);
    assert_eq!(
        system.lm_model.num_trigrams(),
        0,
        "trigrams must all be pruned"
    );
    // The LM WFST collapses to root + unigram-history states.
    assert_eq!(system.lm_fst.num_states(), 1 + spec.vocab_size);
    let utts = system.test_utterances(3);
    let run = run_unfold(&system, &utts);
    assert!(
        run.wer.percent() < 60.0,
        "bigram decode degenerated: {}",
        run.wer.percent()
    );
    assert!(run.sim.cycles > 0);
}

#[test]
fn real_gmm_scoring_decodes_and_errors_track_separation() {
    // The GMM substrate: feature vectors sampled from per-PDF Gaussians
    // and scored with real likelihood arithmetic. Well-separated models
    // decode near-perfectly; overlapping ones err — no injected
    // confusion involved.
    use unfold_am::{build_am, synthesize_utterance_gmm, GmmModel, HmmTopology, Lexicon};
    use unfold_decoder::{wer, DecodeConfig, NullSink, OtfDecoder, WerReport};
    use unfold_lm::{lm_to_wfst, CorpusSpec, NGramModel};

    let lex = Lexicon::generate(60, 20, 21);
    let am = build_am(&lex, HmmTopology::Kaldi3State);
    let spec = CorpusSpec {
        vocab_size: 60,
        num_sentences: 400,
        ..Default::default()
    };
    let model = NGramModel::train(&spec.generate(22), 60, Default::default());
    let lm = lm_to_wfst(&model);
    let decoder = OtfDecoder::new(DecodeConfig::default());

    let run = |separation: f32| -> f64 {
        let gmm = GmmModel::synthesize(am.num_pdfs, 12, 2, separation, 23);
        let mut rep = WerReport::default();
        for seed in 0..6u64 {
            let words = [
                (seed as u32 % 60) + 1,
                ((seed as u32 * 11) % 60) + 1,
                ((seed as u32 * 5) % 60) + 1,
            ];
            let utt = synthesize_utterance_gmm(&words, &lex, HmmTopology::Kaldi3State, &gmm, seed);
            let res = decoder.decode(&am.fst, &lm, &utt.scores, &mut NullSink);
            rep.accumulate(wer(&utt.words, &res.words));
        }
        rep.percent()
    };

    let clean = run(6.0);
    let noisy = run(0.15);
    assert!(clean < 10.0, "separated GMM should be near-exact: {clean}%");
    assert!(
        noisy > clean + 10.0,
        "heavy overlap must produce word errors: {noisy}% vs {clean}%"
    );
}
