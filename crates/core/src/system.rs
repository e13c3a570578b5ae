//! End-to-end system assembly: one call builds everything a task needs.

use unfold_am::{
    build_am, synthesize_utterance, synthesize_utterance_gmm, AmGraph, GmmModel, Lexicon, Utterance,
};
use unfold_compress::{CompressedAm, CompressedComposed, CompressedLm};
use unfold_lm::{lm_to_wfst, Corpus, NGramModel};
use unfold_wfst::{SizeModel, Wfst};

use crate::composed::build_composed_lg;
use crate::task::{ScoringSynth, TaskSpec};

/// K-means clusters for weight quantization (paper §3.4: 64 → 6 bits).
pub const QUANT_CLUSTERS: usize = 64;

/// Dataset sizes in mebibytes — the currency of Tables 1–2 and Figure 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeTable {
    /// Uncompressed AM WFST.
    pub am_mib: f64,
    /// Uncompressed LM WFST.
    pub lm_mib: f64,
    /// Offline-composed WFST (uncompressed).
    pub composed_mib: f64,
    /// Compressed AM (UNFOLD format).
    pub am_comp_mib: f64,
    /// Compressed LM (UNFOLD format).
    pub lm_comp_mib: f64,
    /// Compressed composed WFST (Price-et-al-style baseline).
    pub composed_comp_mib: f64,
    /// Acoustic backend (GMM/DNN/LSTM parameters).
    pub backend_mib: f64,
}

impl SizeTable {
    /// "On-the-fly" row: AM + LM, uncompressed.
    pub fn on_the_fly_mib(&self) -> f64 {
        self.am_mib + self.lm_mib
    }

    /// "On-the-fly + Comp" row: UNFOLD's dataset.
    pub fn unfold_mib(&self) -> f64 {
        self.am_comp_mib + self.lm_comp_mib
    }

    /// Footprint reduction of UNFOLD vs the uncompressed composed WFST
    /// (the paper's headline 31x).
    pub fn reduction_vs_composed(&self) -> f64 {
        self.composed_mib / self.unfold_mib()
    }

    /// Reduction vs the compressed composed WFST (the paper's 8.8x).
    pub fn reduction_vs_composed_comp(&self) -> f64 {
        self.composed_comp_mib / self.unfold_mib()
    }
}

/// A fully-built task: models, compressed models, and generators.
pub struct System {
    /// The task this system instantiates.
    pub spec: TaskSpec,
    /// Pronunciation lexicon.
    pub lexicon: Lexicon,
    /// Acoustic-model WFST and metadata.
    pub am: AmGraph,
    /// Trained n-gram model.
    pub lm_model: NGramModel,
    /// LM WFST (ilabel-sorted, back-off arcs last).
    pub lm_fst: Wfst,
    /// Bit-packed AM (UNFOLD's format).
    pub am_comp: CompressedAm,
    /// Bit-packed LM (UNFOLD's format).
    pub lm_comp: CompressedLm,
    /// The GMM front-end (present under [`ScoringSynth::RealGmm`]).
    pub gmm: Option<GmmModel>,
    /// Held-out sentences for test utterances.
    heldout: Corpus,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("task", &self.spec.name)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds every model for `spec`: corpus → LM → LM WFST, lexicon →
    /// AM WFST, plus the compressed forms. Deterministic in
    /// `spec.seed`.
    pub fn build(spec: &TaskSpec) -> System {
        let corpus = spec.corpus_spec().generate(spec.seed);
        let (train, heldout) = corpus.split_heldout(0.05);
        let lm_model = NGramModel::train(&train, spec.vocab_size, spec.discount);
        let lm_fst = lm_to_wfst(&lm_model);
        let lexicon = Lexicon::generate(spec.vocab_size, spec.phonemes, spec.seed ^ 0xA11CE);
        let am = build_am(&lexicon, spec.topology);
        let am_comp = CompressedAm::compress(&am.fst, QUANT_CLUSTERS, spec.seed);
        let lm_comp = CompressedLm::compress(&lm_fst, QUANT_CLUSTERS, spec.seed);
        let gmm = match spec.scoring {
            ScoringSynth::Table => None,
            ScoringSynth::RealGmm {
                dim,
                mixtures,
                separation,
            } => Some(GmmModel::synthesize(
                am.num_pdfs,
                dim,
                mixtures,
                separation,
                spec.seed ^ 0x6A11,
            )),
        };
        System {
            spec: *spec,
            lexicon,
            am,
            lm_model,
            lm_fst,
            am_comp,
            lm_comp,
            gmm,
            heldout,
        }
    }

    /// Builds the offline-composed decoding graph (large; built on
    /// demand rather than held by the system).
    pub fn composed(&self) -> Wfst {
        build_composed_lg(&self.lexicon, self.spec.topology, &self.lm_model)
    }

    /// Synthesizes `n` test utterances from held-out sentences.
    ///
    /// # Panics
    /// Panics if the held-out set is empty.
    pub fn test_utterances(&self, n: usize) -> Vec<Utterance> {
        assert!(!self.heldout.sentences.is_empty(), "no held-out sentences");
        (0..n)
            .map(|i| {
                let sent = &self.heldout.sentences[i % self.heldout.sentences.len()];
                // Cap utterance length to keep decode time bounded.
                let words = &sent[..sent.len().min(12)];
                let seed = self.spec.seed.wrapping_add(i as u64 * 7919);
                match &self.gmm {
                    Some(gmm) => synthesize_utterance_gmm(
                        words,
                        &self.lexicon,
                        self.spec.topology,
                        gmm,
                        seed,
                    ),
                    None => synthesize_utterance(
                        words,
                        &self.lexicon,
                        self.spec.topology,
                        &self.spec.noise,
                        seed,
                    ),
                }
            })
            .collect()
    }

    /// Measures every dataset size (builds the composed graph, so this
    /// is the most expensive call on a full-size task).
    pub fn sizes(&self) -> SizeTable {
        self.sizes_with(&self.composed())
    }

    /// [`System::sizes`] against an already-built [`System::composed`]
    /// graph, for callers that keep the graph for decoding too.
    pub fn sizes_with(&self, composed: &Wfst) -> SizeTable {
        let composed_comp = CompressedComposed::compress(composed, QUANT_CLUSTERS, self.spec.seed);
        const MIB: f64 = 1024.0 * 1024.0;
        SizeTable {
            am_mib: SizeModel::UNCOMPRESSED.mib(&self.am.fst),
            lm_mib: SizeModel::UNCOMPRESSED.mib(&self.lm_fst),
            composed_mib: SizeModel::UNCOMPRESSED.mib(composed),
            am_comp_mib: self.am_comp.size_bytes() as f64 / MIB,
            lm_comp_mib: self.lm_comp.size_bytes() as f64 / MIB,
            composed_comp_mib: composed_comp.size_bytes() as f64 / MIB,
            backend_mib: self.spec.backend.bytes() as f64 / MIB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_system() -> System {
        System::build(&TaskSpec::tiny())
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny_system();
        let b = tiny_system();
        assert_eq!(a.am.fst.num_arcs(), b.am.fst.num_arcs());
        assert_eq!(a.lm_fst.num_arcs(), b.lm_fst.num_arcs());
        let ua = a.test_utterances(2);
        let ub = b.test_utterances(2);
        assert_eq!(ua[0].words, ub[0].words);
        assert_eq!(ua[1].alignment, ub[1].alignment);
    }

    #[test]
    fn sizes_reproduce_paper_shape() {
        let s = tiny_system();
        let t = s.sizes();
        // Composed dwarfs the individual models.
        assert!(t.composed_mib > 3.0 * t.on_the_fly_mib());
        // Compression shrinks both representations.
        assert!(t.unfold_mib() < t.on_the_fly_mib());
        assert!(t.composed_comp_mib < t.composed_mib);
        // UNFOLD's dataset is the smallest of all configurations.
        assert!(t.unfold_mib() < t.composed_comp_mib);
        // Headline reductions point the right way.
        assert!(t.reduction_vs_composed() > t.reduction_vs_composed_comp());
        assert!(
            t.reduction_vs_composed() > 8.0,
            "got {}",
            t.reduction_vs_composed()
        );
    }

    #[test]
    fn real_gmm_system_builds_and_decodes() {
        let spec = TaskSpec::tiny().with_real_gmm(10, 2, 5.0);
        let s = System::build(&spec);
        assert!(s.gmm.is_some());
        let utts = s.test_utterances(2);
        assert_eq!(utts[0].scores.num_pdfs(), s.am.num_pdfs);
        let run = crate::experiments::run_unfold(&s, &utts);
        assert!(
            run.wer.percent() < 25.0,
            "well-separated GMM: {}",
            run.wer.percent()
        );
    }

    #[test]
    fn utterances_use_heldout_words() {
        let s = tiny_system();
        let utts = s.test_utterances(3);
        assert_eq!(utts.len(), 3);
        for u in &utts {
            assert!(!u.words.is_empty() && u.words.len() <= 12);
            assert!(u.scores.num_frames() > 0);
        }
    }
}
