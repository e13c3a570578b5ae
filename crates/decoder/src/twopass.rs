//! Two-pass decoding: AM-driven search first, LM rescoring second.
//!
//! The paper's related work (§6) divides on-the-fly decoders into
//! *one-pass* (compose while searching — what UNFOLD accelerates) and
//! *two-pass* strategies (search the AM with a weak LM to produce a
//! word lattice, then rescore with the full LM), noting that "the
//! rescoring phase of the two-pass method cannot be executed until the
//! end of AM search, \[so\] it typically leads to larger latencies".
//! This module implements the two-pass baseline so that design choice
//! can be evaluated rather than asserted — see the
//! `ablation_two_pass` benchmark binary.

use unfold_am::AcousticScores;
use unfold_lm::{NGramModel, WordId};
use unfold_wfst::{Arc, Label, StateId};

use crate::config::{DecodeConfig, DecodeResult, DecodeStats};
use crate::otf::{nbest_list, OtfDecoder};
use crate::sources::{addr, AmSource, Fetch, LmSource};
use crate::trace::TraceSink;

/// A unigram LM whose states mirror the last recognized word: costs are
/// pure unigram (no context), but keeping one state per word stops the
/// beam search from recombining hypotheses that differ only in their
/// final word — without this, the first pass would hand the rescorer a
/// 1-best list and the second pass could never change anything. This is
/// the "weak LM" driving the first pass.
#[derive(Debug, Clone)]
pub struct UnigramLm {
    /// `cost[w - 1]` = unigram cost of word `w`.
    costs: Vec<f32>,
}

impl UnigramLm {
    /// Extracts the unigram distribution from a trained model.
    pub fn from_model(model: &NGramModel) -> Self {
        let costs = (1..=model.vocab_size() as WordId)
            .map(|w| model.unigram_cost(w))
            .collect();
        UnigramLm { costs }
    }

    /// Unigram cost of `w`.
    ///
    /// # Panics
    /// Panics if `w` is epsilon or out of range.
    pub fn cost(&self, w: WordId) -> f32 {
        self.costs[(w - 1) as usize]
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.costs.len()
    }
}

impl LmSource for UnigramLm {
    fn start(&self) -> StateId {
        0
    }

    fn state_addr(&self, _s: StateId) -> u64 {
        addr::LM_STATE_BASE
    }

    fn num_states(&self) -> usize {
        // State 0 (start) plus one state per vocabulary word.
        self.costs.len() + 1
    }

    fn lookup_word_into(&self, _s: StateId, word: Label, probes: &mut Vec<Fetch>) -> Option<Arc> {
        if word >= 1 && (word as usize) <= self.costs.len() {
            // Positional access, like the compressed LM root.
            let off = u64::from(word - 1);
            probes.push((addr::LM_ARC_BASE + off, 1));
            Some(Arc::new(word, word, self.cost(word), word))
        } else {
            None
        }
    }

    fn backoff(&self, _s: StateId) -> Option<(Arc, Fetch)> {
        None
    }
}

/// A second-pass model: maps a first-pass hypothesis (its word sequence
/// plus combined AM ⊗ weak-LM cost) to a rescored total cost, returning
/// the cost together with how many full-LM evaluations it spent. This
/// is the lattice-rescoring hook: candidates are read off the exact
/// first-pass word lattice ([`nbest_list`]), so any model
/// too expensive to interleave with the search — a long-context LM, a
/// neural rescorer — plugs in here.
pub trait LatticeRescorer {
    /// Rescores one candidate; returns `(new_cost, lm_evals)`.
    fn rescore(&self, words: &[WordId], first_pass_cost: f32) -> (f32, u64);
}

/// The stock second pass: swaps each word's weak-LM (unigram) score for
/// the full back-off n-gram score, exactly what one-pass search
/// interleaves online.
#[derive(Debug, Clone)]
pub struct NGramRescorer<'a> {
    model: &'a NGramModel,
    weak: UnigramLm,
}

impl<'a> NGramRescorer<'a> {
    /// A rescorer replacing [`UnigramLm`] scores with `model`'s.
    pub fn new(model: &'a NGramModel) -> Self {
        NGramRescorer {
            model,
            weak: UnigramLm::from_model(model),
        }
    }
}

impl LatticeRescorer for NGramRescorer<'_> {
    fn rescore(&self, words: &[WordId], first_pass_cost: f32) -> (f32, u64) {
        let mut rescored = first_pass_cost;
        let mut evals = 0u64;
        for (i, &w) in words.iter().enumerate() {
            let lo = i.saturating_sub(2);
            rescored += self.model.word_cost(&words[lo..i], w) - self.weak.cost(w);
            evals += 1;
        }
        (rescored, evals)
    }
}

/// Outcome of a two-pass decode.
#[derive(Debug, Clone)]
pub struct TwoPassResult {
    /// The rescored best hypothesis.
    pub result: DecodeResult,
    /// Candidates produced by the first pass.
    pub num_candidates: usize,
    /// Full-LM evaluations performed during rescoring (each is a
    /// back-off walk that one-pass decoding would have interleaved with
    /// the search — and that here happen *after* the utterance ends,
    /// the latency cost §6 calls out).
    pub rescoring_evals: u64,
}

/// The two-pass decoder: pass 1 searches with [`UnigramLm`]; pass 2
/// rescores the n-best list with the full model.
#[derive(Debug, Clone)]
pub struct TwoPassDecoder {
    config: DecodeConfig,
    nbest: usize,
}

impl TwoPassDecoder {
    /// Creates a two-pass decoder keeping `nbest` first-pass candidates.
    ///
    /// # Panics
    /// Panics if `nbest == 0`.
    pub fn new(config: DecodeConfig, nbest: usize) -> Self {
        assert!(nbest > 0, "new: nbest must be positive");
        TwoPassDecoder { config, nbest }
    }

    /// Decodes one utterance: a [`UnigramLm`] first pass rescored by
    /// the full n-gram model ([`NGramRescorer`]).
    pub fn decode<A: AmSource + ?Sized>(
        &self,
        am: &A,
        model: &NGramModel,
        scores: &AcousticScores,
        sink: &mut dyn TraceSink,
    ) -> TwoPassResult {
        let weak = UnigramLm::from_model(model);
        self.decode_rescored(am, &weak, &NGramRescorer::new(model), scores, sink)
    }

    /// The generic two-pass pipeline: search with `weak_lm`, read the
    /// n-best candidates off the exact word lattice, hand each to
    /// `rescorer`. Rescoring work is profiled as LM-lookup time — the
    /// full-LM evaluation one-pass search interleaves online, here paid
    /// after the utterance ends (the §6 latency cost).
    pub fn decode_rescored<A, L, R>(
        &self,
        am: &A,
        weak_lm: &L,
        rescorer: &R,
        scores: &AcousticScores,
        sink: &mut dyn TraceSink,
    ) -> TwoPassResult
    where
        A: AmSource + ?Sized,
        L: LmSource + ?Sized,
        R: LatticeRescorer + ?Sized,
    {
        let pass1 = OtfDecoder::new(self.config);
        let (first, lattice) = pass1.decode_lattice(am, weak_lm, scores, sink);
        let candidates = nbest_list(&first, &lattice, self.nbest);
        let num_candidates = candidates.len();

        sink.stage_enter(crate::trace::DecodeStage::LmLookup);
        let mut evals = 0u64;
        let mut best: Option<(Vec<Label>, f32)> = None;
        for (words, cost) in candidates {
            let (rescored, e) = rescorer.rescore(&words, cost);
            evals += e;
            if best.as_ref().is_none_or(|(_, c)| rescored < *c) {
                best = Some((words, rescored));
            }
        }
        sink.stage_exit(crate::trace::DecodeStage::LmLookup);
        let (words, cost) = best.unwrap_or((Vec::new(), f32::INFINITY));
        TwoPassResult {
            result: DecodeResult {
                words,
                word_frames: Vec::new(),
                cost,
                stats: DecodeStats::default(),
            },
            num_candidates,
            rescoring_evals: evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NullSink;
    use crate::wer;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig};

    fn setup() -> (Lexicon, unfold_wfst::Wfst, NGramModel, unfold_wfst::Wfst) {
        let lex = Lexicon::generate(40, 18, 3);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 40,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(5), 40, DiscountConfig::default());
        let lm = lm_to_wfst(&model);
        (lex, am.fst, model, lm)
    }

    #[test]
    fn unigram_lm_resolves_every_word_without_backoff() {
        let (_, _, model, _) = setup();
        let weak = UnigramLm::from_model(&model);
        for w in 1..=40u32 {
            let res = weak.lookup_word(0, w);
            let arc = res.arc.expect("unigram exists");
            assert_eq!(arc.nextstate, w, "state mirrors the last word");
            assert!((arc.weight - model.unigram_cost(w)).abs() < 1e-6);
        }
        assert!(weak.backoff(0).is_none());
    }

    #[test]
    fn clean_audio_decodes_identically_either_way() {
        let (lex, am, model, lm) = setup();
        let truth = vec![4u32, 11, 7];
        let utt = synthesize_utterance(
            &truth,
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            2,
        );
        let one =
            OtfDecoder::new(DecodeConfig::default()).decode(&am, &lm, &utt.scores, &mut NullSink);
        let two = TwoPassDecoder::new(DecodeConfig::default(), 8).decode(
            &am,
            &model,
            &utt.scores,
            &mut NullSink,
        );
        assert_eq!(one.words, truth);
        assert_eq!(two.result.words, truth);
        assert!(two.num_candidates >= 1);
        // Every candidate word is rescored once.
        assert!(two.rescoring_evals >= 3);
    }

    #[test]
    fn rescoring_prefers_lm_likely_sequences() {
        // Corpus-frequent word pairs must not lose to the weak LM's
        // unigram-only ranking after rescoring.
        let (lex, am, model, lm) = setup();
        let noise = NoiseModel {
            noise_sigma: 1.1,
            ..NoiseModel::default()
        };
        let mut one_errors = 0u64;
        let mut two_errors = 0u64;
        let mut refs = 0u64;
        for seed in 0..6u64 {
            let words = [(seed as u32 % 40) + 1, ((seed as u32 * 3) % 40) + 1];
            let utt = synthesize_utterance(&words, &lex, HmmTopology::Kaldi3State, &noise, seed);
            let one = OtfDecoder::new(DecodeConfig::default()).decode(
                &am,
                &lm,
                &utt.scores,
                &mut NullSink,
            );
            let two = TwoPassDecoder::new(DecodeConfig::default(), 8).decode(
                &am,
                &model,
                &utt.scores,
                &mut NullSink,
            );
            let r1 = wer(&words, &one.words);
            let r2 = wer(&words, &two.result.words);
            one_errors += r1.substitutions + r1.deletions + r1.insertions;
            two_errors += r2.substitutions + r2.deletions + r2.insertions;
            refs += 2;
        }
        // One-pass integrates the full LM during the search and can
        // only be at least as good on average (the paper's rationale
        // for choosing it); allow equality.
        assert!(
            one_errors <= two_errors + 1,
            "one-pass {one_errors} vs two-pass {two_errors} of {refs}"
        );
    }

    #[test]
    #[should_panic(expected = "nbest must be positive")]
    fn zero_nbest_panics() {
        let _ = TwoPassDecoder::new(DecodeConfig::default(), 0);
    }

    /// A synthetic "expensive LM" stand-in: too costly to interleave
    /// with the search (imagine a long-context neural model), so it
    /// only runs as a second pass. Here it vetoes one exact sequence.
    struct VetoRescorer {
        banned: Vec<WordId>,
    }

    impl LatticeRescorer for VetoRescorer {
        fn rescore(&self, words: &[WordId], first_pass_cost: f32) -> (f32, u64) {
            let penalty = if words == self.banned.as_slice() {
                1000.0
            } else {
                0.0
            };
            (first_pass_cost + penalty, words.len() as u64)
        }
    }

    #[test]
    fn lattice_rescoring_hook_reranks_with_an_expensive_lm() {
        let (lex, am, model, _) = setup();
        let weak = UnigramLm::from_model(&model);
        let noise = NoiseModel {
            noise_sigma: 1.5,
            ..NoiseModel::default()
        };
        let utt = synthesize_utterance(&[6, 14, 9], &lex, HmmTopology::Kaldi3State, &noise, 21);
        // A word substitution costs ~18 on this synthetic AM, so both
        // beams must be wide for alternates to survive into the lattice.
        let cfg = DecodeConfig::builder()
            .beam(30.0)
            .lattice_beam(30.0)
            .build()
            .unwrap();
        let nbest = OtfDecoder::new(cfg).decode_nbest(&am, &weak, &utt.scores, 8, &mut NullSink);
        assert!(
            nbest.len() >= 2,
            "workload too easy: the lattice holds a single hypothesis"
        );
        let banned = nbest[0].0.clone();
        let res = TwoPassDecoder::new(cfg, 8).decode_rescored(
            &am,
            &weak,
            &VetoRescorer {
                banned: banned.clone(),
            },
            &utt.scores,
            &mut NullSink,
        );
        assert_ne!(
            res.result.words, banned,
            "the expensive LM's veto must rerank the list"
        );
        assert_eq!(res.result.words, nbest[1].0);
        assert!(res.rescoring_evals > 0);
    }
}
