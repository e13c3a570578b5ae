#![warn(missing_docs)]

//! UNFOLD: a memory-efficient speech recognizer using on-the-fly WFST
//! composition — full-system reproduction.
//!
//! This facade crate wires the substrates together into the paper's two
//! end-to-end systems and its four evaluation tasks:
//!
//! * [`task`] — scaled synthetic equivalents of the paper's
//!   Kaldi-TEDLIUM, Kaldi-Librispeech, Kaldi-Voxforge, and
//!   EESEN-TEDLIUM setups,
//! * [`system`] — builds everything a task needs (lexicon, AM, LM,
//!   compressed models, test utterances) and reports dataset sizes,
//! * [`composed`] — the realistic offline-composed decoding graph
//!   (LM-arc expansion) whose size explosion motivates the paper,
//! * [`experiments`] — one-call runners pairing a decoder with an
//!   accelerator model: UNFOLD, the Reza et al. baseline, and the
//!   Tegra X1 GPU,
//! * [`batch`] — the utterance-parallel worker pool behind the
//!   runners' `_jobs` variants (bit-identical for any worker count),
//! * [`models`] — the unified model facade: one API over generated,
//!   owned-loaded, and zero-copy mmap-backed `.unfb` bundle models.
//!
//! # Quickstart
//!
//! ```
//! use unfold::{System, TaskSpec};
//! use unfold::experiments::run_unfold;
//!
//! let system = System::build(&TaskSpec::tiny());
//! let utts = system.test_utterances(2);
//! let run = run_unfold(&system, &utts);
//! assert!(run.wer.percent() < 50.0);
//! assert!(run.sim.times_real_time() > 1.0);
//! ```

pub mod batch;
pub mod composed;
pub mod experiments;
pub mod models;
pub mod system;
pub mod task;

pub use batch::{decode_batch, decode_batch_recorded};
pub use composed::build_composed_lg;
pub use experiments::{run_baseline_on, run_gpu, run_unfold, run_unfold_jobs, GpuRun, SystemRun};
pub use models::{pack_system, AmModel, LmModel, Models, DEFAULT_LM};
pub use system::{SizeTable, System};
pub use task::{ScoringSynth, TaskSpec};
