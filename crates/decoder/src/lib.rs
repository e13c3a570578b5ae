#![warn(missing_docs)]

//! Viterbi beam-search decoders for the UNFOLD reproduction.
//!
//! Two functionally-equivalent decoders, mirroring the paper's two
//! systems:
//!
//! * [`FullyComposedDecoder`] — token-passing beam search over the
//!   offline-composed WFST (the Reza et al. baseline, §2),
//! * [`OtfDecoder`] — the on-the-fly decoder: each token pairs an AM
//!   state with an LM state; cross-word AM arcs trigger an LM lookup
//!   (binary search + back-off walk), optionally cut short by the
//!   paper's preemptive pruning (§3.3).
//!
//! Both decoders are generic over *sources* ([`sources`]) so the same
//! search runs against uncompressed [`unfold_wfst::Wfst`]s or the
//! bit-packed compressed models, and both emit a memory-access trace
//! through a [`TraceSink`] that the accelerator simulator replays.
//!
//! # Example
//!
//! ```
//! use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
//! use unfold_lm::{lm_to_wfst, CorpusSpec, NGramModel};
//! use unfold_decoder::{DecodeConfig, OtfDecoder, NullSink};
//!
//! let lex = Lexicon::generate(50, 20, 1);
//! let am = build_am(&lex, HmmTopology::Kaldi3State);
//! let spec = CorpusSpec { vocab_size: 50, num_sentences: 200, ..Default::default() };
//! let model = NGramModel::train(&spec.generate(2), 50, Default::default());
//! let lm = lm_to_wfst(&model);
//!
//! let utt = synthesize_utterance(&[5, 9], &lex, HmmTopology::Kaldi3State, &NoiseModel::clean(), 3);
//! let decoder = OtfDecoder::new(DecodeConfig::default());
//! let result = decoder.decode(&am.fst, &lm, &utt.scores, &mut NullSink);
//! assert_eq!(result.words, vec![5, 9]);
//! ```

pub mod config;
pub mod full;
pub mod ingest;
pub(crate) mod kernel;
pub mod lattice;
pub mod metrics;
pub mod olt;
pub mod otf;
pub mod record;
#[doc(hidden)]
pub mod reference;
pub mod scratch;
pub(crate) mod search;
pub mod sources;
pub mod streaming;
pub mod trace;
pub mod twopass;
pub mod wer;

pub use config::{ConfigError, DecodeConfig, DecodeConfigBuilder, DecodeResult, DecodeStats};
pub use full::FullyComposedDecoder;
pub use ingest::{
    copy_score_row, AcousticScorer, FrameInput, GmmScorer, PrecomputedScorer, ScoreError,
};
pub use lattice::{Lattice, LatticeArc, LatticeNode, WordHyp, WordLattice};
pub use metrics::{MetricsSink, TeeSink};
pub use olt::SoftOlt;
pub use otf::{nbest_list, OtfDecoder};
pub use record::{TraceEvent, TraceRecorder};
pub use scratch::{validate_models, DecodeScratch, SessionScratch, WorkScratch};
pub use sources::{
    addr, AmSource, ArcVisit, Fetch, LinearLm, LmResolution, LmSource, MAX_BACKOFF_HOPS,
};
pub use streaming::StreamSession;
pub use trace::{CountingSink, DecodeStage, KernelPhase, NullSink, TraceSink};
pub use twopass::{LatticeRescorer, NGramRescorer, TwoPassDecoder, TwoPassResult, UnigramLm};
pub use wer::{align, oracle_wer, wer, AlignOp, WerReport};
