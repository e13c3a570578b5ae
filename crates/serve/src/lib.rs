#![warn(missing_docs)]

//! Multi-session streaming decode server for the UNFOLD reproduction.
//!
//! The paper's SoC decodes one utterance at a time; a deployed
//! recognizer front-ends *many* concurrent audio streams against one
//! shared AM and a registry of named LMs (clients pick a model per
//! session; models can be added and retired live). This crate supplies
//! that serving layer, pure `std` and thread-based (no async runtime),
//! in layers that peel apart for testing:
//!
//! * [`ServeCore`] — the deterministic heart: a session table plus a
//!   deadline-ordered ready queue, driven manually with an explicit
//!   logical clock (`now_ms`). Every scheduling decision is testable
//!   without threads or sleeps.
//! * [`Server`] / [`ServeHandle`] — a worker pool (`std::thread`)
//!   around the core: each worker owns one [`WorkScratch`] (and thus
//!   one software OLT) for its whole life, leases a session quantum
//!   under the lock, and decodes outside it.
//! * [`tcp`] — a length-prefixed TCP front end over `std::net`, one
//!   session per connection.
//! * [`loadgen`] — a closed-loop load generator measuring
//!   first-partial and final-result latency percentiles (captured in
//!   µs), with an optional live-stats scraper that cross-checks the
//!   server's frame ledger mid-run.
//!
//! The core is also instrumented end to end: every session carries a
//! lifecycle span tree (`session` → `sched-wait`/`lease`) on the
//! logical clock, a bounded flight recorder pins a JSONL dump of the
//! scheduler events leading up to the first deadline miss, overload
//! reject, or worker panic, and workers feed a lock-free decode-latency
//! histogram. All of it is readable live over the wire (`Stats` /
//! `Dump`) and none of it touches the search.
//!
//! Sessions are [`unfold_decoder::StreamSession`]s: they hold *only*
//! per-utterance search state, so any worker can advance any session
//! and transcripts stay **bit-identical** to a standalone
//! [`unfold_decoder::OtfDecoder::decode`] of the same audio — the
//! property the scheduler tests pin down.
//!
//! [`WorkScratch`]: unfold_decoder::WorkScratch

pub mod loadgen;
pub mod sched;
pub mod server;
pub mod session;
pub mod tcp;
pub mod wire;

pub use loadgen::{
    run_bias_compare, run_loadgen, BiasCompare, LatencyMs, LoadgenConfig, LoadgenReport,
};
pub use sched::{Lease, ServeCore, ServeStats, DEFAULT_LM};
pub use server::{ServeHandle, Server};
pub use session::{SessionId, SessionPhase, SessionView};
pub use tcp::TcpFront;
pub use wire::{ClientMsg, ServerMsg};

// The decoder's unified frame-ingest vocabulary, re-exported so serve
// callers need not depend on `unfold-decoder` directly.
pub use unfold_decoder::{AcousticScorer, FrameInput, ScoreError};

use unfold_decoder::DecodeConfig;

/// Pressure at which new sessions are admitted with tightened beams
/// (degradation level 1).
pub const DEGRADE_SOFT: f64 = 0.6;

/// Pressure at which new sessions get the tightest beams (degradation
/// level 2). Admission is refused outright only when capacity or the
/// backlog bound is actually exhausted.
pub const DEGRADE_HARD: f64 = 0.85;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum concurrent sessions (table slots). Admission beyond this
    /// is refused with [`RejectReason::AtCapacity`].
    pub capacity: usize,
    /// Worker threads in the threaded [`Server`] (min 1).
    pub workers: usize,
    // Vestige: nothing reads this field. It exists only because the
    // frozen harness writes `scoring_workers: 0` in a `ServeConfig`
    // struct literal (benchmark/src/api.rs), and goes when a
    // `benchmark` PR drops that line.
    #[doc(hidden)]
    pub scoring_workers: usize,
    /// Frames a worker decodes per lease before requeueing the session
    /// — the scheduling quantum.
    pub quantum_frames: usize,
    /// Service deadline per quantum: a session with pending work should
    /// get a decode slice within this budget; later completions count
    /// as deadline misses.
    pub deadline_ms: u64,
    /// Sessions with no client activity for this long are evicted.
    pub idle_timeout_ms: u64,
    /// Per-session bound on queued (undecoded) frames.
    pub session_queue_frames: usize,
    /// Server-wide bound on queued frames; beyond it both new sessions
    /// and new frames are refused with [`RejectReason::Overloaded`].
    pub max_backlog_frames: usize,
    /// Per-worker software-OLT capacity (entries, 0 disables). The OLT
    /// memoizes LM lookups against the shared LM, so sharing one table
    /// across the sessions a worker serves never changes transcripts.
    pub olt_entries: usize,
    /// Beam configuration for sessions admitted at low pressure; the
    /// degradation ladder tightens it as pressure rises.
    pub base: DecodeConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacity: 32,
            workers: 2,
            scoring_workers: 0,
            quantum_frames: 16,
            deadline_ms: 500,
            idle_timeout_ms: 10_000,
            session_queue_frames: 512,
            max_backlog_frames: 4_096,
            olt_entries: 1_024,
            base: DecodeConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Load signal in `[0, ∞)`: the worse of session-slot utilization
    /// and backlog utilization. `1.0` means a bound is exhausted.
    pub fn pressure(&self, active_sessions: usize, backlog_frames: usize) -> f64 {
        let slots = active_sessions as f64 / self.capacity.max(1) as f64;
        let backlog = backlog_frames as f64 / self.max_backlog_frames.max(1) as f64;
        slots.max(backlog)
    }

    /// The degradation ladder: the [`DecodeConfig`] a session admitted
    /// at `pressure` decodes under, plus the ladder level (0 = full
    /// beams, 1 = tightened, 2 = tightest). Degradation applies to
    /// *new* sessions only — already-admitted sessions keep the beams
    /// they were promised.
    pub fn admission_config(&self, pressure: f64) -> (DecodeConfig, u8) {
        let mut cfg = self.base;
        if pressure >= DEGRADE_HARD {
            cfg.beam = self.base.beam * 0.5;
            cfg.max_active = (self.base.max_active / 4).max(1);
            (cfg, 2)
        } else if pressure >= DEGRADE_SOFT {
            cfg.beam = self.base.beam * 0.75;
            cfg.max_active = (self.base.max_active / 2).max(1);
            (cfg, 1)
        } else {
            (cfg, 0)
        }
    }
}

/// Why a session or frame was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// All session slots are occupied.
    AtCapacity,
    /// The server-wide frame backlog bound is exhausted.
    Overloaded,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::AtCapacity => write!(f, "at capacity"),
            RejectReason::Overloaded => write!(f, "overloaded"),
        }
    }
}

/// Errors surfaced by session operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No such session (never existed, already collected, or evicted).
    UnknownSession(SessionId),
    /// Admission control refused the request.
    Rejected(RejectReason),
    /// The per-session frame queue is full; the frame was dropped.
    QueueFull(SessionId),
    /// The session already finished; it accepts no more frames.
    Finished(SessionId),
    /// No LM is registered under this name.
    UnknownModel(String),
    /// The last registered LM cannot be retired — a server always has a
    /// default model.
    LastModel(String),
    /// The acoustic scorer refused a frame (wrong width, NaN or ±inf in
    /// a feature frame, or features pushed at a server with no acoustic
    /// frontend).
    Score(SessionId, unfold_decoder::ScoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::QueueFull(id) => write!(f, "session {id}: frame queue full"),
            ServeError::Finished(id) => write!(f, "session {id}: already finished"),
            ServeError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            ServeError::LastModel(name) => {
                write!(f, "cannot retire '{name}': it is the last registered LM")
            }
            ServeError::Score(id, e) => write!(f, "session {id}: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Fixtures shared by the scheduler, server and TCP tests.
#[cfg(test)]
mod testkit {
    use std::sync::Arc;

    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel, Utterance};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::Wfst;

    /// A 50-word lexicon with its AM and trigram LM.
    pub(crate) fn setup() -> (Lexicon, Arc<Wfst>, Arc<Wfst>) {
        let lex = Lexicon::generate(50, 20, 6);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(3), 50, DiscountConfig::default());
        (lex, Arc::new(am.fst), Arc::new(lm_to_wfst(&model)))
    }

    /// `words` spoken under the default noise model.
    pub(crate) fn utt(lex: &Lexicon, words: &[u32], seed: u64) -> Utterance {
        synthesize_utterance(
            words,
            lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            seed,
        )
    }

    /// Frame `t` of `u` as a precomputed score-row ingest frame.
    pub(crate) fn score_row(u: &Utterance, t: usize) -> unfold_decoder::FrameInput {
        unfold_decoder::FrameInput::Scores(u.scores.frame(t).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_is_the_worse_of_slots_and_backlog() {
        let cfg = ServeConfig {
            capacity: 10,
            max_backlog_frames: 100,
            ..Default::default()
        };
        assert_eq!(cfg.pressure(0, 0), 0.0);
        assert_eq!(cfg.pressure(5, 0), 0.5);
        assert_eq!(cfg.pressure(0, 90), 0.9);
        assert_eq!(cfg.pressure(5, 90), 0.9);
        assert_eq!(cfg.pressure(10, 0), 1.0);
    }

    #[test]
    fn degradation_ladder_tightens_then_holds() {
        let cfg = ServeConfig::default();
        let (full, l0) = cfg.admission_config(0.0);
        assert_eq!(l0, 0);
        assert_eq!(full, cfg.base);

        let (soft, l1) = cfg.admission_config(DEGRADE_SOFT);
        assert_eq!(l1, 1);
        assert!(soft.beam < full.beam);
        assert!(soft.max_active < full.max_active);

        let (hard, l2) = cfg.admission_config(DEGRADE_HARD);
        assert_eq!(l2, 2);
        assert!(hard.beam < soft.beam);
        assert!(hard.max_active < soft.max_active);
    }

    #[test]
    fn degraded_max_active_never_reaches_zero() {
        let cfg = ServeConfig {
            base: DecodeConfig::builder()
                .max_active(1)
                .build()
                .expect("valid config"),
            ..Default::default()
        };
        let (hard, _) = cfg.admission_config(1.0);
        assert!(hard.max_active >= 1);
    }
}
