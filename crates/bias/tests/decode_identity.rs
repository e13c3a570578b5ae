//! End-to-end differential tests: the on-the-fly biased decode must be
//! bit-for-bit identical to a decode over the offline-composed oracle,
//! and a biasing model that never fires must leave the decode
//! bit-identical to the unbiased LM.

use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
use unfold_bias::{BiasedLm, BiasingFst, OfflineBiasedLm};
use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder, StreamSession, WorkScratch};
use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
use unfold_wfst::Wfst;

fn setup() -> (Lexicon, Wfst, Wfst) {
    let lex = Lexicon::generate(40, 20, 3);
    let am = build_am(&lex, HmmTopology::Kaldi3State);
    let spec = CorpusSpec {
        vocab_size: 40,
        num_sentences: 300,
        ..Default::default()
    };
    let model = NGramModel::train(&spec.generate(5), 40, DiscountConfig::default());
    (lex, am.fst, lm_to_wfst(&model))
}

#[test]
fn biased_otf_decode_matches_offline_oracle_bitwise() {
    let (lex, am, lm) = setup();
    let dec = OtfDecoder::new(DecodeConfig::default());
    for seed in 0..6u64 {
        let bias = BiasingFst::mint(seed.wrapping_mul(0x9E37_79B9), 40, 5);
        let biased = BiasedLm::new(&lm, &bias);
        let oracle = OfflineBiasedLm::compose(&lm, &bias);
        let truth = vec![(seed as u32 % 40) + 1, 7, 3, 15];
        let utt = synthesize_utterance(
            &truth,
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            seed,
        );
        let otf = dec.decode(&am, &biased, &utt.scores, &mut NullSink);
        let off = dec.decode(&am, &oracle, &utt.scores, &mut NullSink);
        assert_eq!(otf.words, off.words, "word mismatch at seed {seed}");
        assert_eq!(
            otf.cost.to_bits(),
            off.cost.to_bits(),
            "cost bits mismatch at seed {seed}: {} vs {}",
            otf.cost,
            off.cost
        );
        assert_eq!(otf.word_frames, off.word_frames, "frames at seed {seed}");
    }
}

#[test]
fn never_firing_bias_is_bit_identical_to_unbiased() {
    let (lex, am, lm) = setup();
    // Phrase words far outside the vocabulary: no arc ever matches, so
    // the composite walk stays at bias root 0 and every delta is an
    // exact zero — the decode must not differ in a single bit.
    let bias = BiasingFst::build(&[(vec![9_000, 9_001], 3.0)]);
    let biased = BiasedLm::new(&lm, &bias);
    let dec = OtfDecoder::new(DecodeConfig::default());
    let truth = vec![7u32, 3, 15, 2];
    let utt = synthesize_utterance(
        &truth,
        &lex,
        HmmTopology::Kaldi3State,
        &NoiseModel::clean(),
        11,
    );
    let plain = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
    let b = dec.decode(&am, &biased, &utt.scores, &mut NullSink);
    assert_eq!(plain.words, b.words);
    assert_eq!(plain.cost.to_bits(), b.cost.to_bits());
    assert_eq!(plain.word_frames, b.word_frames);
}

#[test]
fn bias_bonus_rescues_a_phrase_the_base_lm_loses() {
    let (lex, am, lm) = setup();
    let dec = OtfDecoder::new(DecodeConfig::default());
    // Find a noisy utterance the unbiased decode gets wrong, then bias
    // the truth phrase until it wins. Skips seeds the base LM already
    // decodes correctly.
    let noise = NoiseModel {
        noise_sigma: 2.5,
        ..NoiseModel::default()
    };
    let mut rescued = false;
    let mut wrong = 0usize;
    'seeds: for seed in 0..80u64 {
        let truth = vec![
            (seed as u32 % 38) + 2,
            ((seed / 3) as u32 % 38) + 1,
            ((seed / 7) as u32 % 38) + 1,
            ((seed / 11) as u32 % 38) + 2,
        ];
        let utt = synthesize_utterance(&truth, &lex, HmmTopology::Kaldi3State, &noise, seed ^ 0x5A);
        let plain = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
        if plain.words == truth {
            continue;
        }
        wrong += 1;
        for bonus in [6.0f32, 12.0, 24.0, 48.0] {
            let bias = BiasingFst::build(&[(truth.clone(), bonus)]);
            let biased = BiasedLm::new(&lm, &bias);
            let b = dec.decode(&am, &biased, &utt.scores, &mut NullSink);
            if b.words == truth {
                rescued = true;
                break 'seeds;
            }
        }
    }
    assert!(
        rescued,
        "no utterance rescued by biasing its truth phrase ({wrong} wrong unbiased decodes)"
    );
}

#[test]
fn per_session_cache_does_not_change_the_answer() {
    let (lex, am, lm) = setup();
    let bias = BiasingFst::mint(0xCAFE, 40, 6);
    let biased = BiasedLm::new(&lm, &bias);
    let utt = synthesize_utterance(
        &[5u32, 9, 22],
        &lex,
        HmmTopology::Kaldi3State,
        &NoiseModel::default(),
        3,
    );
    let base = DecodeConfig::default();
    let on = OtfDecoder::new(base.to_builder().bias_cache_entries(256).build().unwrap()).decode(
        &am,
        &biased,
        &utt.scores,
        &mut NullSink,
    );
    let off = OtfDecoder::new(base.to_builder().bias_cache_entries(0).build().unwrap()).decode(
        &am,
        &biased,
        &utt.scores,
        &mut NullSink,
    );
    assert_eq!(on.words, off.words);
    assert_eq!(on.cost.to_bits(), off.cost.to_bits());
    assert!(on.stats.bias_probes > 0, "cache-on run must probe");
    assert!(
        off.stats.bias_probes == 0 && off.stats.bias_installs == 0,
        "cache-off run must not touch the session layer"
    );
}

/// A streaming session sizes its per-session memo only when its LM
/// composes. Through the biasing adapter the memo is live: a streamed
/// biased decode probes it and matches the offline one exactly, the
/// session-layer counters included.
#[test]
fn streamed_biased_session_keeps_its_session_memo() {
    let (lex, am, lm) = setup();
    let bias = BiasingFst::mint(0xCAFE, 40, 6);
    let biased = BiasedLm::new(&lm, &bias);
    let utt = synthesize_utterance(
        &[5u32, 9, 22],
        &lex,
        HmmTopology::Kaldi3State,
        &NoiseModel::default(),
        3,
    );
    let cfg = DecodeConfig::default();
    let offline = OtfDecoder::new(cfg).decode(&am, &biased, &utt.scores, &mut NullSink);
    let mut work = WorkScratch::new();
    let mut session = StreamSession::new(cfg);
    session.seed(&am, &biased, &mut work, &mut NullSink);
    for t in 0..utt.scores.num_frames() {
        session.push_frame(&am, &biased, &mut work, utt.scores.frame(t), &mut NullSink);
    }
    let streamed = session.finalize(&am, &mut NullSink);
    assert!(
        streamed.stats.bias_probes > 0,
        "the session memo was never probed"
    );
    assert_eq!(streamed.words, offline.words);
    assert_eq!(streamed.cost.to_bits(), offline.cost.to_bits());
    assert_eq!(streamed.stats, offline.stats);
}
