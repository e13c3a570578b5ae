//! Session identity, lifecycle, and the table entry the scheduler
//! juggles.

use std::collections::VecDeque;
use std::sync::Arc;

use unfold_bias::BiasingFst;
use unfold_decoder::{DecodeResult, LmSource, StreamSession};
use unfold_lm::WordId;

/// Opaque session identifier, unique for a server's lifetime.
pub type SessionId = u64;

/// Where a session is in its lifecycle.
///
/// `Open → Finishing → Closed`; eviction removes the entry from any
/// phase. There is no separate "Streaming" state — an `Open` session
/// with queued frames is streaming, one without is idle, and the
/// distinction is visible in [`SessionView::queued`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Accepting frames.
    Open,
    /// `finish()` called; draining queued frames, then finalizing.
    Finishing,
    /// Final result ready for collection.
    Closed,
}

/// A read-only snapshot of one session's scheduling state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionView {
    /// Lifecycle phase.
    pub phase: SessionPhase,
    /// Frames accepted from the client so far.
    pub frames_accepted: u64,
    /// Frames actually decoded so far.
    pub frames_decoded: u64,
    /// Frames queued, awaiting a decode slice.
    pub queued: usize,
    /// Whether a worker currently holds this session's decode state
    /// and a quantum of its frames.
    pub leased: bool,
    /// Degradation-ladder level this session was admitted at
    /// (0 = full beams).
    pub degrade_level: u8,
}

/// The session-table entry. The decode state lives in an `Option` so a
/// worker can *move it out* under the lock (a lease), decode without
/// holding the lock, and return it.
///
/// The entry pins its *own* LM handle, resolved once at `open` from the
/// server's model registry. Retiring an LM from the registry therefore
/// never disturbs a live session — the session's `Arc` keeps the model
/// alive until its final result is collected.
#[derive(Debug)]
pub(crate) struct Session<L: LmSource + ?Sized> {
    /// The LM this session decodes against (fixed at admission).
    pub lm: Arc<L>,
    /// The registry generation stamp of `lm` at admission — the stable
    /// identity leases hand workers for their per-LM OLT memo (heap
    /// addresses are reusable across retire/add; stamps are not).
    pub lm_gen: u64,
    /// The biasing model personalizing this session, if any (fixed at
    /// admission, like `lm`). Each quantum wraps `lm` in a fresh
    /// on-the-fly `BiasedLm` around this handle.
    pub bias: Option<Arc<BiasingFst>>,
    /// Registry generation stamp of `bias` at admission (0 when
    /// unbiased; stamps share the LM counter and start at the LM
    /// count, so 0 is never a bias stamp).
    pub bias_gen: u64,
    /// Search state; `None` while leased to a worker.
    pub decode: Option<StreamSession>,
    /// Queued score rows (`row[pdf - 1]` = acoustic cost), scored at
    /// ingest and awaiting a decode slice.
    pub queue: VecDeque<Vec<f32>>,
    pub phase: SessionPhase,
    /// Last *client* activity (open/push/finish) — the idle-eviction
    /// clock. Decode progress deliberately does not refresh it.
    pub last_activity_ms: u64,
    /// Last *scheduler* progress (lease completion). Collection has no
    /// timestamp of its own, so the root span closes at
    /// `max(last_activity_ms, last_progress_ms)` — never before its
    /// child lease spans.
    pub last_progress_ms: u64,
    /// The `(deadline_ms, seq)` key of this session's live ready-queue
    /// entry, if any; heap entries with a different key are stale.
    pub armed: Option<(u64, u64)>,
    pub leased: bool,
    pub result: Option<DecodeResult>,
    pub frames_accepted: u64,
    pub frames_decoded: u64,
    /// Stable prefix cached at the last lease completion, served while
    /// the decode state is out with a worker.
    pub last_partial: Vec<WordId>,
    pub degrade_level: u8,
    /// The session's root lifecycle span, open from admission until
    /// the slot is freed (collect or evict). 0 = spans disabled.
    pub root_span: u64,
    /// The open `sched-wait` span, if the session is armed and waiting
    /// for a lease. 0 = none open.
    pub wait_span: u64,
}

impl<L: LmSource + ?Sized> Session<L> {
    pub(crate) fn new(
        decode: StreamSession,
        lm: Arc<L>,
        lm_gen: u64,
        bias: Option<(Arc<BiasingFst>, u64)>,
        now_ms: u64,
        degrade_level: u8,
    ) -> Self {
        let (bias, bias_gen) = match bias {
            Some((b, g)) => (Some(b), g),
            None => (None, 0),
        };
        Session {
            lm,
            lm_gen,
            bias,
            bias_gen,
            decode: Some(decode),
            queue: VecDeque::new(),
            phase: SessionPhase::Open,
            last_activity_ms: now_ms,
            last_progress_ms: now_ms,
            armed: None,
            leased: false,
            result: None,
            frames_accepted: 0,
            frames_decoded: 0,
            last_partial: Vec::new(),
            degrade_level,
            root_span: 0,
            wait_span: 0,
        }
    }

    /// Whether the session has work a lease could perform: queued
    /// frames, or a pending finalize.
    pub(crate) fn runnable(&self) -> bool {
        !self.queue.is_empty() || (self.phase == SessionPhase::Finishing && self.result.is_none())
    }

    pub(crate) fn view(&self) -> SessionView {
        SessionView {
            phase: self.phase,
            frames_accepted: self.frames_accepted,
            frames_decoded: self.frames_decoded,
            queued: self.queue.len(),
            leased: self.leased,
            degrade_level: self.degrade_level,
        }
    }
}
