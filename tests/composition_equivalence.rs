//! The reproduction's core correctness claim: on-the-fly composition,
//! pair-space offline composition, and the determinized LG graph all
//! implement the same search.

use unfold::{build_composed_lg, System, TaskSpec};
use unfold_decoder::{DecodeConfig, FullyComposedDecoder, NullSink, OtfDecoder};
use unfold_wfst::{compose_am_lm, ComposeOptions};

#[test]
fn otf_equals_pairspace_composition() {
    // Pair-space composition explodes, so use a very small task.
    let mut spec = TaskSpec::tiny();
    spec.vocab_size = 40;
    spec.num_sentences = 300;
    let system = System::build(&spec);
    let composed = compose_am_lm(&system.am.fst, &system.lm_fst, ComposeOptions::default());
    let otf = OtfDecoder::new(DecodeConfig::default());
    let full = FullyComposedDecoder::new(DecodeConfig::default());
    for utt in system.test_utterances(5) {
        let a = otf.decode(&system.am.fst, &system.lm_fst, &utt.scores, &mut NullSink);
        let b = full.decode(&composed, &utt.scores, &mut NullSink);
        assert_eq!(a.words, b.words, "transcripts diverged");
        assert!(
            (a.cost - b.cost).abs() < 1e-3,
            "best-path costs diverged: {} vs {}",
            a.cost,
            b.cost
        );
    }
}

#[test]
fn otf_matches_determinized_lg() {
    // The LG graph encodes back-off as *epsilon* arcs (the standard
    // ARPA-to-WFST approximation real toolchains use), so it admits a
    // back-off path even where a direct n-gram arc exists; its best
    // path can therefore only be cheaper than the exact failure
    // semantics the on-the-fly decoder implements.
    let system = System::build(&TaskSpec::tiny());
    let lg = build_composed_lg(&system.lexicon, system.spec.topology, &system.lm_model);
    let otf = OtfDecoder::new(DecodeConfig::default());
    let full = FullyComposedDecoder::new(DecodeConfig::default());
    let mut diverged = 0;
    let utts = system.test_utterances(5);
    for utt in &utts {
        let a = otf.decode(&system.am.fst, &system.lm_fst, &utt.scores, &mut NullSink);
        let b = full.decode(&lg, &utt.scores, &mut NullSink);
        assert!(
            b.cost <= a.cost + 1e-3,
            "epsilon back-off can only add paths: {} vs {}",
            b.cost,
            a.cost
        );
        if a.words != b.words {
            diverged += 1;
        }
    }
    assert!(
        diverged <= 1,
        "{diverged}/{} transcripts diverged",
        utts.len()
    );
}

#[test]
fn compressed_models_decode_like_uncompressed() {
    let system = System::build(&TaskSpec::tiny());
    let otf = OtfDecoder::new(DecodeConfig::default());
    let mut diverged = 0;
    let utts = system.test_utterances(6);
    for utt in &utts {
        let a = otf.decode(&system.am.fst, &system.lm_fst, &utt.scores, &mut NullSink);
        let b = otf.decode(&system.am_comp, &system.lm_comp, &utt.scores, &mut NullSink);
        if a.words != b.words {
            diverged += 1;
        }
    }
    // Quantization may flip a borderline hypothesis occasionally; the
    // paper reports < 0.01% WER change, i.e. essentially never.
    assert!(
        diverged <= 1,
        "{diverged}/{} transcripts changed",
        utts.len()
    );
}

#[test]
fn lm_walks_agree_between_all_representations() {
    use unfold_decoder::LmSource;
    let system = System::build(&TaskSpec::tiny());
    let lm = &system.lm_fst;
    let clm = &system.lm_comp;
    for s in (0..lm.num_states() as u32).step_by(5) {
        for w in (1..=80u32).step_by(9) {
            let a = LmSource::resolve(lm, s, w).expect("resolvable");
            let b = LmSource::resolve(clm, s, w).expect("resolvable");
            assert_eq!(a.dest, b.dest, "state {s} word {w}");
            assert_eq!(a.backoff_hops, b.backoff_hops);
        }
    }
}

mod property {
    use proptest::prelude::*;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_decoder::{DecodeConfig, FullyComposedDecoder, NullSink, OtfDecoder};
    use unfold_lm::{CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::{compose_am_lm, ComposeOptions};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For random miniature tasks and utterances, on-the-fly and
        /// pair-space offline composition decode identically.
        #[test]
        fn random_tasks_decode_identically(
            seed in 0u64..1_000,
            vocab in 15usize..40,
            phones in 8usize..20,
            sigma in 0.1f32..1.2,
            w1 in 1u32..15,
            w2 in 1u32..15,
        ) {
            let lex = Lexicon::generate(vocab, phones, seed);
            let am = build_am(&lex, HmmTopology::Kaldi3State);
            let spec = CorpusSpec { vocab_size: vocab, num_sentences: 120, ..Default::default() };
            let model = NGramModel::train(&spec.generate(seed ^ 1), vocab, DiscountConfig::default());
            let lm = unfold_lm::lm_to_wfst(&model);
            let composed = compose_am_lm(&am.fst, &lm, ComposeOptions::default());

            let noise = NoiseModel { noise_sigma: sigma, ..NoiseModel::default() };
            let utt = synthesize_utterance(&[w1, w2], &lex, HmmTopology::Kaldi3State, &noise, seed ^ 2);

            let cfg = DecodeConfig::default();
            let a = OtfDecoder::new(cfg).decode(&am.fst, &lm, &utt.scores, &mut NullSink);
            let b = FullyComposedDecoder::new(cfg).decode(&composed, &utt.scores, &mut NullSink);
            prop_assert_eq!(&a.words, &b.words);
            if a.is_complete() {
                prop_assert!((a.cost - b.cost).abs() < 1e-2,
                    "costs diverged: {} vs {}", a.cost, b.cost);
            }
        }

        /// CTC-topology tasks decode identically too.
        #[test]
        fn ctc_tasks_decode_identically(seed in 0u64..500, w in 1u32..12) {
            let lex = Lexicon::generate(20, 10, seed);
            let am = build_am(&lex, HmmTopology::Ctc);
            let spec = CorpusSpec { vocab_size: 20, num_sentences: 100, ..Default::default() };
            let model = NGramModel::train(&spec.generate(seed), 20, DiscountConfig::default());
            let lm = unfold_lm::lm_to_wfst(&model);
            let composed = compose_am_lm(&am.fst, &lm, ComposeOptions::default());
            let utt = synthesize_utterance(&[w], &lex, HmmTopology::Ctc, &NoiseModel::clean(), seed);
            let cfg = DecodeConfig::default();
            let a = OtfDecoder::new(cfg).decode(&am.fst, &lm, &utt.scores, &mut NullSink);
            let b = FullyComposedDecoder::new(cfg).decode(&composed, &utt.scores, &mut NullSink);
            prop_assert_eq!(&a.words, &b.words);
            prop_assert_eq!(a.words, vec![w]);
        }
    }
}

#[test]
fn composed_lg_root_is_a_pronunciation_prefix_tree() {
    // DESIGN.md argues the offline-composed graph stays tractable
    // because the words leaving one LM state share a pronunciation
    // prefix tree instead of one HMM chain per word. Check that
    // `build_composed_lg` builds exactly that tree below the root
    // anchor: the states reachable from anchor 0 without crossing a
    // word arc are one HMM chain per distinct pronunciation prefix.
    use std::collections::HashSet;
    use unfold_am::{HmmTopology, Lexicon};
    use unfold_lm::{CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::EPSILON;

    let lex = Lexicon::generate(60, 12, 31);
    let spec = CorpusSpec {
        vocab_size: 60,
        num_sentences: 100,
        ..Default::default()
    };
    let model = NGramModel::train(&spec.generate(31), 60, DiscountConfig::default());
    let topology = HmmTopology::Kaldi3State;
    let lg = build_composed_lg(&lex, topology, &model);

    let mut seen = HashSet::from([0]);
    let mut stack = vec![0];
    while let Some(s) = stack.pop() {
        for arc in lg.arcs(s) {
            if arc.olabel == EPSILON && seen.insert(arc.nextstate) {
                stack.push(arc.nextstate);
            }
        }
    }
    let tree_states = seen.len() - 1;

    // Independent counts over the lexicon the root anchor spells.
    let prons: Vec<&[_]> = (1..=model.vocab_size() as u32)
        .map(|w| lex.pronunciation(w))
        .collect();
    let prefixes: HashSet<_> = prons
        .iter()
        .flat_map(|p| (1..=p.len()).map(move |len| &p[..len]))
        .collect();
    let chain_states: usize = prons.iter().map(|p| p.len()).sum();
    let pdfs = topology.states_per_phoneme();

    assert_eq!(
        tree_states,
        prefixes.len() * pdfs,
        "root tree = prefix tree"
    );
    assert!(
        tree_states < chain_states * pdfs,
        "prefix sharing must beat one chain per word"
    );
}
