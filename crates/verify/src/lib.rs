#![warn(missing_docs)]

//! Randomized differential verification for the UNFOLD decoder.
//!
//! The paper's central correctness claim is that on-the-fly composition
//! is *exactly* equivalent to searching the offline-composed WFST
//! (Section 3; Table 6 reports identical WER). The hand-written tests in
//! `tests/` pin that equivalence — and the bit-identity of every
//! decode-time acceleration — on a handful of fixed presets. This crate
//! hunts for divergence systematically, in the spirit of the
//! differential testing practiced around WFST toolkits:
//!
//! 1. [`CaseSpec::derive`] generates seeded adversarial model/utterance
//!    pairs with knobs skewed toward edge cases: unigram-only and
//!    pruned-bigram LMs (deep back-off chains), coarse weight grids
//!    (arc-weight ties), tight beams, CTC vs 3-state topologies, and
//!    empty / one-frame utterances.
//! 2. [`run_case`] decodes each case through the full configuration
//!    matrix — on-the-fly vs offline-composed oracle, OLT sizes
//!    ∈ {0, small, large}, fresh vs warm scratch, `jobs` ∈ {1, N},
//!    streaming vs whole-utterance, compressed models vs their
//!    `to_wfst()` round-trips, the two-pass rescoring bound — and
//!    replays the recorded trace through the accelerator simulator
//!    twice, asserting [`unfold_sim::SimReport`] determinism.
//! 3. On divergence, [`shrink()`] runs a delta-debugging loop over the
//!    generator knobs (drop words, truncate frames, shrink the
//!    vocabulary and corpus, force a unigram-only LM) until no simpler
//!    spec still diverges, and [`ReproCase`] serializes the minimized
//!    case as a self-contained text file that
//!    `unfold-cli verify --repro <file>` replays.
//!
//! [`Mutation`] injects known decoder bugs (e.g. an OLT-style memo that
//! skips the full-key compare, §3.1/DESIGN.md §7) so the campaign's
//! detection and shrinking machinery is itself tested end to end.

pub mod campaign;
pub mod case;
pub mod check;
pub mod repro;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignDivergence, CampaignReport};
pub use case::{CaseModels, CaseSpec};
pub use check::{
    run_case, run_case_caught, run_case_caught_filtered, run_case_filtered, CheckId, Divergence,
    Mutation,
};
pub use repro::{run_repro, ReproCase, ReproParseError};
pub use shrink::{shrink, ShrinkOutcome};
