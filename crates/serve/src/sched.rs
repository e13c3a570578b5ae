//! The deterministic scheduler core: session table, deadline-ordered
//! ready queue, admission control, and the lease protocol workers use
//! to decode outside the lock.
//!
//! [`ServeCore`] never reads a wall clock — every method takes a
//! logical `now_ms`, so tests drive overload, idle eviction, and
//! deadline misses with plain arithmetic instead of sleeps. The
//! threaded [`crate::Server`] wraps it with a real clock.
//!
//! # Scheduling
//!
//! Ready sessions sit in a min-heap keyed by `(deadline, seq)` —
//! earliest deadline first, with an arm-order sequence number breaking
//! ties. A session is *armed* (given a deadline `now + deadline_ms` and
//! pushed) when work first arrives, and re-armed after each quantum
//! while work remains, so equal-deadline sessions round-robin in FIFO
//! order: 8 sessions with queued audio each get one quantum before any
//! gets its second. Heap entries are never removed eagerly; an entry
//! whose `(deadline, seq)` no longer matches the session's `armed`
//! field is stale and skipped on pop.
//!
//! # Leases
//!
//! [`ServeCore::lease_next`] *moves* a session's decode state and up to
//! `quantum_frames` queued rows out of the table; the caller runs
//! [`Lease::run`] with its own per-worker [`WorkScratch`] (no lock
//! held), then returns everything with [`ServeCore::complete_lease`].
//! Because a [`StreamSession`] carries no worker-local state, which
//! worker runs which quantum cannot affect transcripts.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use unfold_bias::{BiasedLm, BiasingFst};
use unfold_decoder::{
    AcousticScorer, AmSource, DecodeResult, FrameInput, LmSource, NullSink, ScoreError,
    StreamSession, TraceSink, WorkScratch,
};
use unfold_lm::WordId;
use unfold_obs::{FlightKind, FlightRecorder, LogHistogram, MetricsRegistry, ObsRecord, SpanLog};

use crate::session::{Session, SessionId, SessionPhase, SessionView};
use crate::{RejectReason, ServeConfig, ServeError};

/// Counters the server accumulates over its lifetime. Latency and
/// population *distributions* live in the core's metrics registry
/// (exported via [`ServeCore::obs_jsonl`]); these scalars are cheap to
/// copy out for tests and status lines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions admitted.
    pub opened: u64,
    /// Admissions refused: no free session slot.
    pub rejected_capacity: u64,
    /// Admissions refused: backlog bound exhausted.
    pub rejected_overload: u64,
    /// Sessions admitted with degraded (tightened) beams.
    pub degraded_admissions: u64,
    /// Sessions evicted by the idle timeout.
    pub evicted_idle: u64,
    /// Frames accepted into session queues.
    pub frames_accepted: u64,
    /// Frames refused (per-session queue full or server overloaded).
    pub frames_rejected: u64,
    /// Frames decoded.
    pub frames_decoded: u64,
    /// Quanta whose completion overran the service deadline.
    pub deadline_misses: u64,
    /// Decode quanta served.
    pub quanta: u64,
    /// Sessions finalized.
    pub finals: u64,
    /// Accepted frames discarded undecoded (eviction of a session with
    /// queued audio, or a lease lost to a worker panic).
    pub frames_dropped: u64,
    /// Leases lost to a panicking worker.
    pub worker_panics: u64,
    /// Frames that passed through the acoustic scorer: every frame
    /// while a scorer is bound (precomputed rows are width-checked and
    /// copied through it like feature frames are scored) and none while
    /// there is not.
    pub frames_scored: u64,
}

/// Name under which a single-LM server registers its model; also the
/// model new sessions decode against when `open` names none.
pub const DEFAULT_LM: &str = "default";

/// A claim on one session's next decode quantum: the decode state, the
/// session's own LM handle, the frames to feed it, and whether to
/// finalize afterwards. Obtained from [`ServeCore::lease_next`]; must
/// be returned via [`ServeCore::complete_lease`] (session stays
/// parked-as-leased until then).
#[derive(Debug)]
pub struct Lease<L: LmSource + ?Sized> {
    id: SessionId,
    decode: StreamSession,
    lm: Arc<L>,
    /// Registry generation of `lm` — the stable identity the worker's
    /// OLT memo is keyed by (an `Arc` address is not one: a retired
    /// model's allocation can be reused by a later `add_lm`).
    lm_gen: u64,
    frames: Vec<Vec<f32>>,
    finalize: bool,
    deadline_ms: u64,
    result: Option<DecodeResult>,
    /// The open `lease` span covering this quantum (0 = none).
    span: u64,
    /// The session's biasing model, if any — wrapped around `lm` as a
    /// fresh on-the-fly `BiasedLm` each quantum. Rebuilding per
    /// quantum is sound: the composite packing derives purely from the
    /// two pinned models' sizes, so token keys stay stable across
    /// quanta and workers.
    bias: Option<Arc<BiasingFst>>,
    /// Registry generation of `bias` (0 = unbiased; stamps share the
    /// LM counter, so 0 is never a bias stamp).
    bias_gen: u64,
    /// The quantum's OLT probes and hits, read by [`Lease::run`] off
    /// the session's [`DecodeStats`](unfold_decoder::DecodeStats) and
    /// attached to the lease span at completion.
    olt_probes: u64,
    olt_hits: u64,
}

impl<L: LmSource + ?Sized> Lease<L> {
    /// The session this lease advances.
    pub fn session(&self) -> SessionId {
        self.id
    }

    /// Frames this quantum will decode.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Whether this quantum finalizes the session.
    pub fn is_final(&self) -> bool {
        self.finalize
    }

    /// The open lease-span id (for [`ServeCore::abort_lease`] if the
    /// lease itself is lost to a panic).
    pub fn span_id(&self) -> u64 {
        self.span
    }

    /// Runs the quantum: seeds the session if this is its first slice,
    /// pushes the leased frames, and finalizes if the session is
    /// draining. The lease carries the session's own LM (selected at
    /// `open`), so a worker serving sessions bound to different models
    /// needs no per-model dispatch. Call with the worker's own `work`
    /// scratch — no lock needs to be held. The quantum's OLT probes and
    /// hits are the change in the session's stats across the call, so
    /// the serve workers pass a [`NullSink`] and decode through the
    /// kernel's static copy.
    pub fn run<A: AmSource + ?Sized>(
        &mut self,
        am: &A,
        work: &mut WorkScratch,
        sink: &mut dyn TraceSink,
    ) {
        let (probes0, hits0) = (self.decode.stats().olt_probes, self.decode.stats().olt_hits);
        // Entries memoized against another session's LM are invalid for
        // this one; binding by the registry's generation stamp resets
        // the OLT only on an actual model switch, and is immune to the
        // allocator reusing a retired model's address. Biased sessions
        // bind the *base* LM's stamp: the worker OLT caches base-LM
        // expansions (pre-bonus), so biased and unbiased sessions of
        // the same LM generation share it safely.
        work.bind_olt_model(self.lm_gen);
        if let Some(bias) = &self.bias {
            let biased = BiasedLm::new(&*self.lm, bias);
            Self::drive(
                &mut self.decode,
                &mut self.result,
                &self.frames,
                self.finalize,
                am,
                &biased,
                work,
                sink,
            );
        } else {
            Self::drive(
                &mut self.decode,
                &mut self.result,
                &self.frames,
                self.finalize,
                am,
                &*self.lm,
                work,
                sink,
            );
        }
        self.olt_probes = self.decode.stats().olt_probes - probes0;
        self.olt_hits = self.decode.stats().olt_hits - hits0;
    }

    #[allow(clippy::too_many_arguments)]
    fn drive<A: AmSource + ?Sized, M: LmSource + ?Sized>(
        decode: &mut StreamSession,
        result: &mut Option<DecodeResult>,
        frames: &[Vec<f32>],
        finalize: bool,
        am: &A,
        lm: &M,
        work: &mut WorkScratch,
        sink: &mut dyn TraceSink,
    ) {
        if !decode.is_seeded() {
            decode.seed(am, lm, work, sink);
        }
        for row in frames {
            decode.push_frame(am, lm, work, row, sink);
        }
        if finalize && result.is_none() {
            *result = Some(decode.finalize(am, sink));
        }
    }
}

/// The largest PDF id on any of `am`'s arcs (0 for an AM with no
/// emitting arc).
fn largest_pdf<A: AmSource + ?Sized>(am: &A) -> usize {
    let mut max = 0;
    for s in 0..am.num_states() as u32 {
        am.for_each_arc(s, &mut |v| max = max.max(v.arc.ilabel as usize));
    }
    max
}

/// One model-registry entry: a named LM plus its generation stamp —
/// unique for the core's whole lifetime, never reused. Workers key
/// their per-LM OLT memo by the stamp, so a model added after a retire
/// can never be mistaken for the one it replaced, even if the
/// allocator hands it the retired model's heap address.
#[derive(Debug)]
struct LmEntry<L: LmSource + ?Sized> {
    name: String,
    gen: u64,
    lm: Arc<L>,
}

/// One biasing-registry entry: a named per-user biasing model plus its
/// generation stamp. Stamps are drawn from the *same* monotonic counter
/// as LM stamps, so a (lm_gen, bias_gen) pair uniquely identifies the
/// composed model a session decodes against for the core's lifetime.
#[derive(Debug)]
struct BiasEntry {
    name: String,
    gen: u64,
    bias: Arc<BiasingFst>,
}

/// The deterministic multi-session scheduler. See the module docs for
/// the scheduling and lease protocols.
///
/// # Model registry
///
/// The core serves one shared AM against a *registry* of named LMs.
/// The first entry is the default; [`ServeCore::open_with_lm`] lets a
/// client pick any registered model, and [`ServeCore::add_lm`] /
/// [`ServeCore::retire_lm`] mutate the registry live. Each session pins
/// its own `Arc` to the LM it was admitted with, so retiring a model
/// never disturbs in-flight sessions — their decodes stay bit-identical
/// to a standalone decode against that model.
#[derive(Debug)]
pub struct ServeCore<A: AmSource + ?Sized, L: LmSource + ?Sized> {
    config: ServeConfig,
    am: Arc<A>,
    /// Registered LMs; the first entry is the default for sessions
    /// that name no model. Never empty.
    lms: Vec<LmEntry<L>>,
    /// Registered per-user biasing models. Unlike `lms`, may be empty:
    /// a session that names no biasing model decodes unbiased.
    biases: Vec<BiasEntry>,
    /// Next generation stamp to hand out (monotonic; shared between
    /// [`LmEntry`] and [`BiasEntry`]).
    next_lm_gen: u64,
    sessions: HashMap<SessionId, Session<L>>,
    /// Min-heap of `(deadline_ms, seq, session)`; stale entries are
    /// skipped on pop (see module docs).
    ready: BinaryHeap<Reverse<(u64, u64, SessionId)>>,
    /// The acoustic scorer ingest runs every frame through. `None` =
    /// passthrough: precomputed score rows are forwarded verbatim and
    /// feature frames are refused.
    scorer: Option<Arc<dyn AcousticScorer>>,
    /// The AM's largest PDF id: the narrowest score row a session can
    /// decode. Narrower rows are refused at ingest instead of
    /// panicking the worker that leases them. Found by one sweep over
    /// the AM's arcs at the first ingest, so building a core stays
    /// O(1) in the model.
    max_pdf: Option<usize>,
    /// The `serve.stage_search_occupancy` gauge, set by the threaded
    /// server from its workers' busy clocks; NaN (the deterministic
    /// core has no wall time) renders as `-` in the stats table.
    search_occupancy: f64,
    next_id: SessionId,
    next_seq: u64,
    /// Total queued frames across sessions (the backlog bound).
    backlog: usize,
    /// Frames currently out with running leases: accepted, no longer
    /// queued, not yet counted decoded. Part of the scrape-time
    /// reconciliation `accepted = decoded + backlog + inflight +
    /// dropped`.
    inflight: u64,
    /// Recycled score-row buffers: steady-state frame ingest allocates
    /// only when the pool is dry, and the pool is bounded by the
    /// backlog bound, so queue memory cannot grow without limit.
    row_pool: Vec<Vec<f32>>,
    stats: ServeStats,
    obs: MetricsRegistry,
    /// Session-lifecycle spans (`session → sched-wait / lease`).
    spans: SpanLog,
    /// Recent-scheduler-event ring with first-anomaly auto-freeze.
    flight: FlightRecorder,
    /// Worker-side decode wall time per quantum (µs), bumped lock-free
    /// by the threaded server's workers; also registered in `obs`.
    lease_decode_us: Arc<LogHistogram>,
    /// Lifetime worker-OLT probe/hit totals, accumulated from each
    /// completed lease's per-quantum counts. Exported as the
    /// `serve.olt_hit_rate` gauge (NaN until the first probe).
    olt_probes_total: u64,
    olt_hits_total: u64,
}

impl<A: AmSource + ?Sized, L: LmSource + ?Sized> ServeCore<A, L> {
    /// A core serving `config` against one shared model pair; the LM is
    /// registered under [`DEFAULT_LM`].
    pub fn new(config: ServeConfig, am: Arc<A>, lm: Arc<L>) -> Self {
        Self::new_multi(config, am, vec![(DEFAULT_LM.to_string(), lm)])
    }

    /// A core serving one AM against several named LMs. The first entry
    /// is the default model for sessions that name none.
    ///
    /// # Panics
    /// When `lms` is empty or contains a duplicate name.
    pub fn new_multi(config: ServeConfig, am: Arc<A>, lms: Vec<(String, Arc<L>)>) -> Self {
        let mut obs = MetricsRegistry::new();
        // Touch every metric once so registration order (and thus
        // export order) is fixed regardless of which events fire first.
        for name in [
            "serve.sessions_opened",
            "serve.rejects_capacity",
            "serve.rejects_overload",
            "serve.admissions_degraded",
            "serve.evictions_idle",
            "serve.frames_accepted",
            "serve.frames_rejected",
            "serve.frames_decoded",
            "serve.deadline_misses",
            "serve.quanta",
            "serve.finals",
            "serve.frames_dropped",
            "serve.worker_panics",
            "serve.frames_scored",
        ] {
            obs.counter(name);
        }
        for name in [
            "serve.backlog_frames",
            "serve.frames_inflight",
            "serve.olt_hit_rate",
            "serve.vm_rss_kb",
            "serve.stage_search_occupancy",
        ] {
            obs.gauge(name);
        }
        // `active_sessions` and `pressure` are *distributions over the
        // run* (sampled at each scheduling event), not shutdown-time
        // gauges — a loaded server reports the load it actually
        // carried. Pressure is scaled ×1000 into integer millis.
        for name in [
            "serve.lease_frames",
            "serve.session_frames",
            "serve.session_words",
            "serve.active_sessions",
            "serve.pressure_milli",
        ] {
            obs.histogram(name);
        }
        let lease_decode_us = obs.log_histogram("serve.lease_decode_us");
        assert!(!lms.is_empty(), "a server needs at least one LM");
        for (i, (name, _)) in lms.iter().enumerate() {
            assert!(
                lms[..i].iter().all(|(n, _)| n != name),
                "duplicate LM name '{name}'"
            );
        }
        let next_lm_gen = lms.len() as u64;
        let lms = lms
            .into_iter()
            .enumerate()
            .map(|(i, (name, lm))| LmEntry {
                name,
                gen: i as u64,
                lm,
            })
            .collect();
        ServeCore {
            config,
            max_pdf: None,
            am,
            lms,
            biases: Vec::new(),
            next_lm_gen,
            sessions: HashMap::new(),
            ready: BinaryHeap::new(),
            scorer: None,
            search_occupancy: f64::NAN,
            next_id: 1,
            next_seq: 0,
            backlog: 0,
            inflight: 0,
            row_pool: Vec::new(),
            stats: ServeStats::default(),
            obs,
            spans: SpanLog::new(),
            flight: FlightRecorder::new(),
            lease_decode_us,
            olt_probes_total: 0,
            olt_hits_total: 0,
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Binds the acoustic scorer every ingested frame is scored
    /// through. Unset (the default), precomputed score rows pass
    /// through verbatim and feature frames are refused.
    pub fn set_scorer(&mut self, scorer: Arc<dyn AcousticScorer>) {
        self.scorer = Some(scorer);
    }

    /// Sets the `serve.stage_search_occupancy` gauge (the workers' busy
    /// fraction in `[0, 1]` over the server's lifetime). The threaded
    /// server computes it from its workers' busy clocks; the
    /// deterministic core has no wall time, so it stays NaN until set.
    pub fn set_stage_occupancy(&mut self, search: f64) {
        self.search_occupancy = search;
    }

    /// Clones of the shared AM and *default* LM handles (for decoding
    /// outside the core's lock).
    pub fn models(&self) -> (Arc<A>, Arc<L>) {
        (Arc::clone(&self.am), Arc::clone(&self.lms[0].lm))
    }

    /// A clone of the shared AM handle.
    pub fn am(&self) -> Arc<A> {
        Arc::clone(&self.am)
    }

    /// The registered LM names, default first.
    pub fn lm_names(&self) -> Vec<String> {
        self.lms.iter().map(|e| e.name.clone()).collect()
    }

    /// Resolves a model name to its registry entry (`None` = default).
    fn lm_entry(&self, name: Option<&str>) -> Result<&LmEntry<L>, ServeError> {
        match name {
            None => Ok(&self.lms[0]),
            Some(n) => self
                .lms
                .iter()
                .find(|e| e.name == n)
                .ok_or_else(|| ServeError::UnknownModel(n.to_string())),
        }
    }

    /// Resolves a model name against the registry (`None` = default).
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when no LM is registered under the
    /// name.
    pub fn lm(&self, name: Option<&str>) -> Result<Arc<L>, ServeError> {
        self.lm_entry(name).map(|e| Arc::clone(&e.lm))
    }

    /// Registers `lm` under `name`, replacing any existing model with
    /// that name (a hot swap). Sessions already pinned to the replaced
    /// model keep it; only *new* admissions see the update. Either way
    /// the entry gets a fresh generation stamp, so workers' per-LM OLT
    /// memos can never carry over from the replaced model. Returns the
    /// replaced handle, if any.
    pub fn add_lm(&mut self, name: &str, lm: Arc<L>) -> Option<Arc<L>> {
        let gen = self.next_lm_gen;
        self.next_lm_gen += 1;
        match self.lms.iter_mut().find(|e| e.name == name) {
            Some(entry) => {
                entry.gen = gen;
                Some(std::mem::replace(&mut entry.lm, lm))
            }
            None => {
                self.lms.push(LmEntry {
                    name: name.to_string(),
                    gen,
                    lm,
                });
                None
            }
        }
    }

    /// Removes `name` from the registry. Live sessions pinned to the
    /// model are untouched — they hold their own `Arc` — but no new
    /// session can select it.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when the name is not registered,
    /// [`ServeError::LastModel`] when it is the only remaining LM (a
    /// server always has a default).
    pub fn retire_lm(&mut self, name: &str) -> Result<Arc<L>, ServeError> {
        let idx = self
            .lms
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        if self.lms.len() == 1 {
            return Err(ServeError::LastModel(name.to_string()));
        }
        Ok(self.lms.remove(idx).lm)
    }

    /// The registered biasing-model names, in registration order.
    pub fn bias_names(&self) -> Vec<String> {
        self.biases.iter().map(|e| e.name.clone()).collect()
    }

    /// Resolves a biasing-model name against the registry.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when no biasing model is registered
    /// under the name.
    pub fn bias(&self, name: &str) -> Result<Arc<BiasingFst>, ServeError> {
        self.biases
            .iter()
            .find(|e| e.name == name)
            .map(|e| Arc::clone(&e.bias))
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Registers `bias` under `name`, replacing any existing biasing
    /// model with that name (a hot swap). As with [`ServeCore::add_lm`],
    /// sessions already pinned to the replaced model keep it, and the
    /// entry gets a fresh generation stamp from the shared counter.
    /// Returns the replaced handle, if any.
    pub fn add_bias(&mut self, name: &str, bias: Arc<BiasingFst>) -> Option<Arc<BiasingFst>> {
        let gen = self.next_lm_gen;
        self.next_lm_gen += 1;
        match self.biases.iter_mut().find(|e| e.name == name) {
            Some(entry) => {
                entry.gen = gen;
                Some(std::mem::replace(&mut entry.bias, bias))
            }
            None => {
                self.biases.push(BiasEntry {
                    name: name.to_string(),
                    gen,
                    bias,
                });
                None
            }
        }
    }

    /// Removes `name` from the biasing registry. Live sessions pinned
    /// to the model are untouched. Unlike [`ServeCore::retire_lm`]
    /// there is no last-model constraint: a server with no biasing
    /// models simply serves every session unbiased.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when the name is not registered.
    pub fn retire_bias(&mut self, name: &str) -> Result<Arc<BiasingFst>, ServeError> {
        let idx = self
            .biases
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        Ok(self.biases.remove(idx).bias)
    }

    /// Sessions currently occupying slots (all phases — a closed
    /// session holds its slot until its result is collected).
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Total queued frames across sessions.
    pub fn backlog_frames(&self) -> usize {
        self.backlog
    }

    /// The current load signal (see [`ServeConfig::pressure`]).
    pub fn pressure(&self) -> f64 {
        self.config.pressure(self.sessions.len(), self.backlog)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Admission control: opens a session against the default LM,
    /// applying the degradation ladder to its beams at the current
    /// pressure, or refuses it.
    ///
    /// # Errors
    /// [`RejectReason::AtCapacity`] when every slot is taken,
    /// [`RejectReason::Overloaded`] when the backlog bound is
    /// exhausted.
    pub fn open(&mut self, now_ms: u64) -> Result<SessionId, RejectReason> {
        match self.open_with_lm(None, now_ms) {
            Ok(id) => Ok(id),
            Err(ServeError::Rejected(r)) => Err(r),
            Err(e) => unreachable!("default LM always resolves: {e}"),
        }
    }

    /// [`ServeCore::open`] with per-session model selection: the new
    /// session decodes against the named LM (`None` = default), pinned
    /// for its whole lifetime.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when the name is not registered,
    /// [`ServeError::Rejected`] when admission control refuses the
    /// session.
    pub fn open_with_lm(&mut self, lm: Option<&str>, now_ms: u64) -> Result<SessionId, ServeError> {
        self.open_with_models(lm, None, now_ms)
    }

    /// [`ServeCore::open_with_lm`] with per-session personalization: the
    /// new session additionally composes the named biasing model
    /// (`None` = unbiased) on the fly over its LM, pinned for its whole
    /// lifetime.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when either name is not registered,
    /// [`ServeError::Rejected`] when admission control refuses the
    /// session.
    pub fn open_with_models(
        &mut self,
        lm: Option<&str>,
        bias: Option<&str>,
        now_ms: u64,
    ) -> Result<SessionId, ServeError> {
        let (lm, lm_gen) = {
            let entry = self.lm_entry(lm)?;
            (Arc::clone(&entry.lm), entry.gen)
        };
        let bias = match bias {
            None => None,
            Some(n) => {
                let entry = self
                    .biases
                    .iter()
                    .find(|e| e.name == n)
                    .ok_or_else(|| ServeError::UnknownModel(n.to_string()))?;
                Some((Arc::clone(&entry.bias), entry.gen))
            }
        };
        if self.sessions.len() >= self.config.capacity {
            self.stats.rejected_capacity += 1;
            self.flight
                .record(FlightKind::RejectCapacity, now_ms, 0, 0.0, 0.0);
            return Err(ServeError::Rejected(RejectReason::AtCapacity));
        }
        if self.backlog >= self.config.max_backlog_frames {
            self.stats.rejected_overload += 1;
            self.flight
                .record(FlightKind::RejectOverload, now_ms, 0, 0.0, 0.0);
            return Err(ServeError::Rejected(RejectReason::Overloaded));
        }
        let (cfg, level) = self.config.admission_config(self.pressure());
        if level > 0 {
            self.stats.degraded_admissions += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut s = Session::new(StreamSession::new(cfg), lm, lm_gen, bias, now_ms, level);
        s.root_span = self.spans.open("session", id, 0, now_ms);
        self.sessions.insert(id, s);
        self.stats.opened += 1;
        self.flight
            .record(FlightKind::Admit, now_ms, id, 0.0, f64::from(level));
        self.sample_load();
        Ok(id)
    }

    /// Queues one frame for `id`: a precomputed score row
    /// (`row[pdf - 1]` = acoustic cost) or a raw feature frame. The
    /// frame is scored inline — through the bound [`AcousticScorer`],
    /// or verbatim passthrough for score rows when none is bound — and
    /// lands in the session's queue.
    ///
    /// # Errors
    /// [`ServeError::Rejected`] when the server-wide backlog bound is
    /// exhausted, [`ServeError::QueueFull`] when this session's queue
    /// is, [`ServeError::Finished`] after `finish`,
    /// [`ServeError::UnknownSession`] for an unknown id, and
    /// [`ServeError::Score`] when inline scoring refuses the frame
    /// (feature frames with no scorer bound, a width mismatch, or a
    /// feature that is not finite). A row narrower than the AM's
    /// largest PDF id is a width mismatch; wider rows pass.
    pub fn ingest_frame(
        &mut self,
        id: SessionId,
        frame: FrameInput,
        now_ms: u64,
    ) -> Result<(), ServeError> {
        if self.backlog >= self.config.max_backlog_frames {
            self.stats.frames_rejected += 1;
            self.flight
                .record(FlightKind::RejectOverload, now_ms, id, 0.0, 1.0);
            return Err(ServeError::Rejected(RejectReason::Overloaded));
        }
        let mut row = self.row_pool.pop().unwrap_or_default();
        row.clear();
        match &self.scorer {
            Some(scorer) => {
                if let Err(e) = scorer.score_into(&frame, &mut row) {
                    self.recycle(std::iter::once(row));
                    return Err(ServeError::Score(id, e));
                }
                self.stats.frames_scored += 1;
            }
            None => match &frame {
                FrameInput::Scores(v) => row.extend_from_slice(v),
                FrameInput::Features(_) => {
                    self.recycle(std::iter::once(row));
                    return Err(ServeError::Score(id, ScoreError::FeaturesUnsupported));
                }
            },
        }
        self.admit_row(id, row, now_ms)
    }

    /// Admission tail of [`ServeCore::ingest_frame`]: phase, row-width
    /// and queue-bound checks, then the session's queue. `buf` is an
    /// owned, already-scored row (recycled on refusal).
    fn admit_row(&mut self, id: SessionId, buf: Vec<f32>, now_ms: u64) -> Result<(), ServeError> {
        let queue_cap = self.config.session_queue_frames;
        let Some(s) = self.sessions.get_mut(&id) else {
            self.recycle(std::iter::once(buf));
            return Err(ServeError::UnknownSession(id));
        };
        s.last_activity_ms = now_ms;
        if s.phase != SessionPhase::Open {
            self.recycle(std::iter::once(buf));
            return Err(ServeError::Finished(id));
        }
        let am = &*self.am;
        let max_pdf = *self.max_pdf.get_or_insert_with(|| largest_pdf(am));
        if buf.len() < max_pdf {
            let e = ScoreError::WidthMismatch {
                expected: max_pdf,
                got: buf.len(),
            };
            self.recycle(std::iter::once(buf));
            return Err(ServeError::Score(id, e));
        }
        if s.queue.len() >= queue_cap {
            self.stats.frames_rejected += 1;
            self.recycle(std::iter::once(buf));
            return Err(ServeError::QueueFull(id));
        }
        s.queue.push_back(buf);
        s.frames_accepted += 1;
        self.stats.frames_accepted += 1;
        self.backlog += 1;
        self.arm(id, now_ms);
        Ok(())
    }

    /// Marks `id` as finishing: queued frames drain, then the session
    /// finalizes and its result becomes collectable. Idempotent.
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when `id` does not exist.
    pub fn finish(&mut self, id: SessionId, now_ms: u64) -> Result<(), ServeError> {
        let s = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        s.last_activity_ms = now_ms;
        if s.phase == SessionPhase::Open {
            s.phase = SessionPhase::Finishing;
        }
        self.arm(id, now_ms);
        Ok(())
    }

    /// Evicts every non-leased session with no client activity for
    /// `idle_timeout_ms` (0 disables eviction), returning the evicted
    /// ids in ascending order. Uncollected results are dropped —
    /// eviction is how abandoned sessions stop holding slots and
    /// lattice memory.
    pub fn evict_idle(&mut self, now_ms: u64) -> Vec<SessionId> {
        if self.config.idle_timeout_ms == 0 {
            return Vec::new();
        }
        let mut expired: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                !s.leased
                    && now_ms.saturating_sub(s.last_activity_ms) >= self.config.idle_timeout_ms
            })
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable();
        for &id in &expired {
            if let Some(s) = self.sessions.remove(&id) {
                let dropped = s.queue.len() as u64;
                self.backlog -= s.queue.len();
                self.stats.frames_dropped += dropped;
                self.recycle(s.queue);
                self.stats.evicted_idle += 1;
                if s.wait_span != 0 {
                    self.spans.close(s.wait_span, now_ms);
                }
                self.spans.close_with(
                    s.root_span,
                    now_ms,
                    &[
                        ("frames_decoded", s.frames_decoded as f64),
                        ("evicted", 1.0),
                    ],
                );
                self.flight
                    .record(FlightKind::Evict, now_ms, id, 0.0, dropped as f64);
            }
        }
        if !expired.is_empty() {
            self.sample_load();
        }
        expired
    }

    /// Claims the ready session with the earliest deadline, moving its
    /// decode state and up to `quantum_frames` rows out of the table.
    /// Returns `None` when no session has pending work. `now_ms` also
    /// stamps the lease's deadline slack at dispatch (`deadline − now`)
    /// into the flight recorder.
    pub fn lease_next(&mut self, now_ms: u64) -> Option<Lease<L>> {
        let quantum = self.config.quantum_frames.max(1);
        while let Some(Reverse((deadline, seq, id))) = self.ready.pop() {
            let Some(s) = self.sessions.get_mut(&id) else {
                continue; // evicted; stale entry
            };
            if s.leased || s.armed != Some((deadline, seq)) {
                continue; // re-armed since; stale entry
            }
            s.armed = None;
            if !s.runnable() {
                continue;
            }
            s.leased = true;
            let take = quantum.min(s.queue.len());
            let frames: Vec<Vec<f32>> = s.queue.drain(..take).collect();
            let finalize = s.phase == SessionPhase::Finishing && s.queue.is_empty();
            let decode = s.decode.take().expect("unleased session owns its state");
            let lm = Arc::clone(&s.lm);
            let lm_gen = s.lm_gen;
            let bias = s.bias.clone();
            let bias_gen = s.bias_gen;
            let root = s.root_span;
            let wait = std::mem::take(&mut s.wait_span);
            if wait != 0 {
                self.spans.close(wait, now_ms);
            }
            self.backlog -= take;
            self.inflight += take as u64;
            self.stats.quanta += 1;
            self.obs.histogram("serve.lease_frames").record(take as u64);
            let slack = deadline as f64 - now_ms as f64;
            self.flight
                .record(FlightKind::Lease, now_ms, id, slack, take as f64);
            self.sample_load();
            let span = self.spans.open("lease", id, root, now_ms);
            return Some(Lease {
                id,
                decode,
                lm,
                lm_gen,
                frames,
                finalize,
                deadline_ms: deadline,
                result: None,
                span,
                bias,
                bias_gen,
                olt_probes: 0,
                olt_hits: 0,
            });
        }
        None
    }

    /// Returns a ran lease: re-parks the decode state, caches the
    /// stable partial, recycles the frame rows, records a deadline miss
    /// if the quantum completed late, and either stores the final
    /// result or re-arms the session for its next quantum.
    pub fn complete_lease(&mut self, lease: Lease<L>, now_ms: u64) {
        let Lease {
            id,
            decode,
            lm: _,
            lm_gen,
            frames,
            finalize: _,
            deadline_ms,
            result,
            span,
            bias: _,
            bias_gen,
            olt_probes,
            olt_hits,
        } = lease;
        let n = frames.len() as u64;
        self.stats.frames_decoded += n;
        self.inflight -= n;
        let slack = deadline_ms as f64 - now_ms as f64;
        if now_ms > deadline_ms {
            self.stats.deadline_misses += 1;
            self.flight
                .record(FlightKind::DeadlineMiss, now_ms, id, slack, n as f64);
        }
        self.olt_probes_total += olt_probes;
        self.olt_hits_total += olt_hits;
        let olt_hit_rate = if olt_probes == 0 {
            0.0
        } else {
            olt_hits as f64 / olt_probes as f64
        };
        self.spans.close_with(
            span,
            now_ms,
            &[
                ("frames", n as f64),
                ("olt_hit_rate", olt_hit_rate),
                ("olt_probes", olt_probes as f64),
                ("lm_gen", lm_gen as f64),
                ("bias_gen", bias_gen as f64),
                ("slack_ms", slack),
            ],
        );
        self.recycle(frames);
        let finished = result.is_some();
        let (session_frames, session_words) = {
            let Some(s) = self.sessions.get_mut(&id) else {
                return; // evicted mid-lease (cannot happen today; be safe)
            };
            s.frames_decoded += n;
            s.last_partial = decode.partial_stable_prefix();
            s.decode = Some(decode);
            s.leased = false;
            s.last_progress_ms = s.last_progress_ms.max(now_ms);
            match result {
                Some(res) => {
                    let words = res.words.len() as u64;
                    s.result = Some(res);
                    s.phase = SessionPhase::Closed;
                    (s.frames_decoded, words)
                }
                None => (0, 0),
            }
        };
        if finished {
            self.stats.finals += 1;
            self.obs
                .histogram("serve.session_frames")
                .record(session_frames);
            self.obs
                .histogram("serve.session_words")
                .record(session_words);
            self.flight
                .record(FlightKind::Final, now_ms, id, slack, session_frames as f64);
        } else {
            self.arm(id, now_ms);
        }
    }

    /// Abandons a lease whose worker panicked mid-quantum: the decode
    /// state and the leased frames went down with the worker's stack,
    /// so the session cannot continue — record the panic (a flight
    /// trigger), close its spans, and free the slot. `lost_frames` is
    /// the lease's frame count, captured before the decode started.
    pub fn abort_lease(&mut self, id: SessionId, lease_span: u64, lost_frames: u64, now_ms: u64) {
        self.stats.worker_panics += 1;
        self.stats.frames_dropped += lost_frames;
        self.inflight -= lost_frames;
        self.spans
            .close_with(lease_span, now_ms, &[("panicked", 1.0)]);
        if let Some(s) = self.sessions.remove(&id) {
            let queued = s.queue.len() as u64;
            self.stats.frames_dropped += queued;
            self.backlog -= s.queue.len();
            self.recycle(s.queue);
            if s.wait_span != 0 {
                self.spans.close(s.wait_span, now_ms);
            }
            self.spans
                .close_with(s.root_span, now_ms, &[("panicked", 1.0)]);
        }
        self.flight
            .record(FlightKind::WorkerPanic, now_ms, id, 0.0, lost_frames as f64);
        self.sample_load();
    }

    /// One scheduler turn: lease, decode, complete. The deterministic
    /// single-threaded driver (and the tests' way of pumping the
    /// server by hand). Returns the session advanced, or `None` when
    /// nothing was runnable.
    pub fn step(&mut self, work: &mut WorkScratch, now_ms: u64) -> Option<SessionId> {
        let mut lease = self.lease_next(now_ms)?;
        let am = self.am();
        lease.run(&*am, work, &mut NullSink);
        let id = lease.session();
        self.complete_lease(lease, now_ms);
        Some(id)
    }

    /// The longest word prefix all of `id`'s live hypotheses agree on —
    /// the non-flickering partial transcript. While the session is
    /// leased out, returns the prefix cached at its last quantum.
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when `id` does not exist.
    pub fn stable_partial(&self, id: SessionId) -> Result<Vec<WordId>, ServeError> {
        let s = self
            .sessions
            .get(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        Ok(match &s.decode {
            Some(d) => d.partial_stable_prefix(),
            None => s.last_partial.clone(),
        })
    }

    /// A snapshot of `id`'s scheduling state.
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when `id` does not exist.
    pub fn view(&self, id: SessionId) -> Result<SessionView, ServeError> {
        self.sessions
            .get(&id)
            .map(Session::view)
            .ok_or(ServeError::UnknownSession(id))
    }

    /// Collects a finished session's result, freeing its slot. Returns
    /// `Ok(None)` while the session is still decoding.
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when `id` does not exist (or was
    /// already collected).
    pub fn take_result(&mut self, id: SessionId) -> Result<Option<DecodeResult>, ServeError> {
        match self.sessions.get(&id) {
            None => Err(ServeError::UnknownSession(id)),
            Some(s) if s.phase == SessionPhase::Closed => {
                let s = self.sessions.remove(&id).expect("present");
                self.backlog -= s.queue.len();
                self.stats.frames_dropped += s.queue.len() as u64;
                self.recycle(s.queue);
                // Collection has no logical timestamp of its own: the
                // root span ends at the session's latest client or
                // scheduler activity, so it never closes before its
                // child lease spans.
                let end = s.last_activity_ms.max(s.last_progress_ms);
                if s.wait_span != 0 {
                    self.spans.close(s.wait_span, end);
                }
                let words = s.result.as_ref().map_or(0, |r| r.words.len()) as f64;
                self.spans.close_with(
                    s.root_span,
                    end,
                    &[
                        ("frames_decoded", s.frames_decoded as f64),
                        ("words", words),
                    ],
                );
                self.sample_load();
                Ok(s.result)
            }
            Some(_) => Ok(None),
        }
    }

    /// Exports server metrics as one `run` JSONL record (the
    /// `unfold-obs` format every other tool in this repo emits).
    pub fn obs_jsonl(&mut self) -> String {
        self.sync_obs();
        let mut out = ObsRecord::Run(self.obs.totals()).to_json();
        out.push('\n');
        out
    }

    /// Renders server metrics as a markdown table.
    pub fn obs_markdown(&mut self) -> String {
        self.sync_obs();
        self.obs.markdown()
    }

    /// Closed session-lifecycle spans as JSONL (one `sspan` record per
    /// line, in close order).
    pub fn spans_jsonl(&self) -> String {
        self.spans.to_jsonl()
    }

    /// Closed spans as a Chrome `trace_event` JSON array for
    /// about://tracing (one track per session).
    pub fn spans_chrome_trace(&self) -> String {
        self.spans.to_chrome_trace()
    }

    /// `(opened, closed, still_open)` span counts over the core's
    /// lifetime — the reconciliation surface for scrape tests.
    pub fn span_counts(&self) -> (u64, u64, usize) {
        (
            self.spans.opened_total(),
            self.spans.closed_total(),
            self.spans.open_count(),
        )
    }

    /// The flight recorder's current ring as JSONL, oldest first.
    pub fn flight_jsonl(&self) -> String {
        self.flight.snapshot_jsonl()
    }

    /// The dump pinned at the first anomaly (deadline miss, overload
    /// reject, worker panic), with the trigger's tag — `None` while the
    /// run has been clean.
    pub fn flight_frozen(&self) -> Option<(&'static str, &str)> {
        Some((self.flight.frozen_reason()?, self.flight.frozen_dump()?))
    }

    /// The shared worker-side decode-time histogram (µs per quantum);
    /// the threaded server's workers record into clones of this `Arc`
    /// with no lock held.
    pub fn lease_decode_us(&self) -> Arc<LogHistogram> {
        Arc::clone(&self.lease_decode_us)
    }

    /// Samples the load distributions (`serve.active_sessions`,
    /// `serve.pressure_milli`) at a scheduling event, so the exported
    /// report reflects load *over the run*, not at shutdown.
    fn sample_load(&mut self) {
        let sessions = self.sessions.len() as u64;
        let pressure_milli = (self.pressure() * 1000.0).round() as u64;
        self.obs.histogram("serve.active_sessions").record(sessions);
        self.obs
            .histogram("serve.pressure_milli")
            .record(pressure_milli);
    }

    /// Arms `id` in the ready queue if it has work and no live entry,
    /// opening its `sched-wait` span (armed → leased is exactly the
    /// time the session spent waiting for a worker).
    fn arm(&mut self, id: SessionId, now_ms: u64) {
        let deadline = now_ms + self.config.deadline_ms;
        let seq = self.next_seq;
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        if s.leased || s.armed.is_some() || !s.runnable() {
            return;
        }
        s.armed = Some((deadline, seq));
        let root = s.root_span;
        self.next_seq += 1;
        self.ready.push(Reverse((deadline, seq, id)));
        let wait = self.spans.open("sched-wait", id, root, now_ms);
        if let Some(s) = self.sessions.get_mut(&id) {
            s.wait_span = wait;
        }
    }

    /// Returns row buffers to the pool (bounded by the backlog bound).
    fn recycle(&mut self, rows: impl IntoIterator<Item = Vec<f32>>) {
        for mut row in rows {
            if self.row_pool.len() >= self.config.max_backlog_frames {
                break;
            }
            row.clear();
            self.row_pool.push(row);
        }
    }

    /// Brings the registry's counters/gauges up to date with the
    /// scalar stats (histograms record at event time).
    fn sync_obs(&mut self) {
        let counters = [
            ("serve.sessions_opened", self.stats.opened),
            ("serve.rejects_capacity", self.stats.rejected_capacity),
            ("serve.rejects_overload", self.stats.rejected_overload),
            ("serve.admissions_degraded", self.stats.degraded_admissions),
            ("serve.evictions_idle", self.stats.evicted_idle),
            ("serve.frames_accepted", self.stats.frames_accepted),
            ("serve.frames_rejected", self.stats.frames_rejected),
            ("serve.frames_decoded", self.stats.frames_decoded),
            ("serve.deadline_misses", self.stats.deadline_misses),
            ("serve.quanta", self.stats.quanta),
            ("serve.finals", self.stats.finals),
            ("serve.frames_dropped", self.stats.frames_dropped),
            ("serve.worker_panics", self.stats.worker_panics),
            ("serve.frames_scored", self.stats.frames_scored),
        ];
        for (name, v) in counters {
            let c = self.obs.counter(name);
            let cur = c.get();
            if v > cur {
                c.add(v - cur);
            }
        }
        self.obs
            .gauge("serve.backlog_frames")
            .set(self.backlog as f64);
        self.obs
            .gauge("serve.frames_inflight")
            .set(self.inflight as f64);
        // NaN — not 0.0 — until the first probe: "no traffic yet" and
        // "every probe missed" are different answers, and the stats
        // table renders the former as `-`.
        let hit_rate = if self.olt_probes_total == 0 {
            f64::NAN
        } else {
            self.olt_hits_total as f64 / self.olt_probes_total as f64
        };
        self.obs.gauge("serve.olt_hit_rate").set(hit_rate);
        self.obs
            .gauge("serve.vm_rss_kb")
            .set(read_vm_rss_kb().map_or(f64::NAN, |kb| kb as f64));
        self.obs
            .gauge("serve.stage_search_occupancy")
            .set(self.search_occupancy);
    }
}

/// This process's resident set size in KiB, from `/proc/self/status`
/// (`None` off Linux or if the field is missing).
pub fn read_vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{score_row, setup, utt};
    use unfold_am::Utterance;
    use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::Wfst;

    fn core_with(am: &Arc<Wfst>, lm: &Arc<Wfst>, config: ServeConfig) -> ServeCore<Wfst, Wfst> {
        ServeCore::new(config, Arc::clone(am), Arc::clone(lm))
    }

    fn push_all(core: &mut ServeCore<Wfst, Wfst>, id: SessionId, u: &Utterance, now: u64) {
        for t in 0..u.scores.num_frames() {
            core.ingest_frame(id, score_row(u, t), now).expect("push");
        }
    }

    /// The tentpole acceptance test: 8 sessions interleaved through the
    /// scheduler, each transcript bit-identical (words, cost bits, and
    /// — with the OLT off — full search statistics) to the same
    /// utterance decoded standalone through `OtfDecoder::decode`.
    #[test]
    fn eight_interleaved_sessions_match_standalone_decode() {
        let (lex, am, lm) = setup();
        let word_seqs: [&[u32]; 8] = [
            &[3, 9, 17],
            &[7, 11, 4],
            &[1, 2, 3],
            &[22, 5],
            &[14, 30, 8, 2],
            &[40, 6, 19],
            &[9, 9, 27],
            &[33, 12],
        ];
        let utts: Vec<Utterance> = word_seqs
            .iter()
            .enumerate()
            .map(|(i, w)| utt(&lex, w, 5 + i as u64))
            .collect();
        // OLT off so even the fetch statistics must match standalone.
        let base = DecodeConfig::default();
        assert_eq!(base.olt_entries, 0);
        let standalone: Vec<_> = utts
            .iter()
            .map(|u| OtfDecoder::new(base).decode(&*am, &*lm, &u.scores, &mut NullSink))
            .collect();

        let config = ServeConfig {
            capacity: 32, // 8/32 < DEGRADE_SOFT: everyone gets full beams
            quantum_frames: 8,
            olt_entries: 0,
            base,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let ids: Vec<SessionId> = (0..8).map(|_| core.open(0).expect("admit")).collect();
        for (id, u) in ids.iter().zip(&utts) {
            push_all(&mut core, *id, u, 0);
            core.finish(*id, 0).expect("finish");
        }

        let mut work = WorkScratch::new();
        work.configure_olt(core.config().olt_entries);
        let mut order = Vec::new();
        while let Some(id) = core.step(&mut work, 0) {
            order.push(id);
        }
        // Equal deadlines round-robin in arm order: the first 8 quanta
        // touch 8 distinct sessions — genuinely interleaved, not
        // run-to-completion.
        let mut first8 = order[..8].to_vec();
        first8.sort_unstable();
        first8.dedup();
        assert_eq!(first8.len(), 8, "first quanta must cover all sessions");

        for ((id, u), alone) in ids.iter().zip(&utts).zip(&standalone) {
            let served = core
                .take_result(*id)
                .expect("known")
                .expect("closed after drain");
            assert_eq!(served.words, alone.words, "utt {:?}", u.words);
            assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
            assert_eq!(served.stats, alone.stats);
        }
        assert_eq!(core.active_sessions(), 0);
        assert_eq!(core.backlog_frames(), 0);
        let stats = core.stats();
        assert_eq!(stats.finals, 8);
        assert_eq!(stats.deadline_misses, 0);
    }

    /// Same interleaving with a shared warm worker OLT: the memo never
    /// changes transcripts, only fetch counts.
    #[test]
    fn shared_worker_olt_does_not_change_transcripts() {
        let (lex, am, lm) = setup();
        let ua = utt(&lex, &[3, 9, 17], 5);
        let ub = utt(&lex, &[7, 11, 4], 8);
        let base = DecodeConfig::builder()
            .olt_entries(512)
            .build()
            .expect("valid config");
        let dec = OtfDecoder::new(base);
        let alone_a = dec.decode(&*am, &*lm, &ua.scores, &mut NullSink);
        let alone_b = dec.decode(&*am, &*lm, &ub.scores, &mut NullSink);

        let config = ServeConfig {
            quantum_frames: 4,
            olt_entries: 512,
            base,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let a = core.open(0).unwrap();
        let b = core.open(0).unwrap();
        push_all(&mut core, a, &ua, 0);
        push_all(&mut core, b, &ub, 0);
        core.finish(a, 0).unwrap();
        core.finish(b, 0).unwrap();
        let mut work = WorkScratch::new();
        work.configure_olt(512);
        while core.step(&mut work, 0).is_some() {}
        let ra = core.take_result(a).unwrap().unwrap();
        let rb = core.take_result(b).unwrap().unwrap();
        assert_eq!(ra.words, alone_a.words);
        assert_eq!(ra.cost.to_bits(), alone_a.cost.to_bits());
        assert_eq!(rb.words, alone_b.words);
        assert_eq!(rb.cost.to_bits(), alone_b.cost.to_bits());
    }

    #[test]
    fn admission_degrades_then_rejects_and_admitted_sessions_complete() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9], 1);
        let config = ServeConfig {
            capacity: 4,
            quantum_frames: 16,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        // Slots fill: pressure at each open is slots-already-taken / 4.
        let s1 = core.open(0).unwrap(); // 0.00 -> full beams
        let s2 = core.open(0).unwrap(); // 0.25 -> full beams
        let s3 = core.open(0).unwrap(); // 0.50 -> full beams
        let s4 = core.open(0).unwrap(); // 0.75 -> degraded
        assert_eq!(core.view(s1).unwrap().degrade_level, 0);
        assert_eq!(core.view(s3).unwrap().degrade_level, 0);
        assert!(core.view(s4).unwrap().degrade_level >= 1, "degrades first");
        // Then sheds: the table is full.
        assert_eq!(core.open(0), Err(RejectReason::AtCapacity));
        let stats = core.stats();
        assert_eq!(stats.degraded_admissions, 1);
        assert_eq!(stats.rejected_capacity, 1);

        // Every admitted session still completes.
        for id in [s1, s2, s3, s4] {
            push_all(&mut core, id, &u, 0);
            core.finish(id, 0).unwrap();
        }
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 0).is_some() {}
        for id in [s1, s2, s3, s4] {
            let res = core.take_result(id).unwrap().expect("completed");
            assert!(!res.words.is_empty());
        }
    }

    #[test]
    fn backlog_bound_rejects_frames_and_new_sessions_memory_stays_bounded() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 2);
        let frames = u.scores.num_frames();
        let config = ServeConfig {
            capacity: 8,
            max_backlog_frames: frames + 3,
            session_queue_frames: usize::MAX,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let a = core.open(0).unwrap();
        push_all(&mut core, a, &u, 0);
        // 3 more rows fit, then the overload bound bites.
        for _ in 0..3 {
            core.ingest_frame(a, score_row(&u, 0), 0).unwrap();
        }
        assert_eq!(
            core.ingest_frame(a, score_row(&u, 0), 0),
            Err(ServeError::Rejected(RejectReason::Overloaded))
        );
        // New sessions are shed under the same signal.
        assert_eq!(core.open(0), Err(RejectReason::Overloaded));
        assert!(core.pressure() >= 1.0);
        let stats = core.stats();
        assert_eq!(stats.frames_rejected, 1);
        assert_eq!(stats.rejected_overload, 1);
        assert_eq!(core.backlog_frames(), frames + 3);

        // Draining frees the backlog; the admitted session completes.
        core.finish(a, 0).unwrap();
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 0).is_some() {}
        assert_eq!(core.backlog_frames(), 0);
        assert!(core.take_result(a).unwrap().is_some());
        assert!(core.open(1).is_ok(), "admits again once drained");
    }

    #[test]
    fn per_session_queue_bound_rejects_excess_frames() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3], 1);
        let config = ServeConfig {
            session_queue_frames: 2,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        core.ingest_frame(id, score_row(&u, 0), 0).unwrap();
        core.ingest_frame(id, score_row(&u, 1), 0).unwrap();
        assert_eq!(
            core.ingest_frame(id, score_row(&u, 2), 0),
            Err(ServeError::QueueFull(id))
        );
        assert_eq!(core.stats().frames_rejected, 1);
    }

    /// Satellite: an abandoned session is evicted mid-utterance — the
    /// client pushed audio, the server decoded it, the client vanished.
    #[test]
    fn idle_session_is_evicted_mid_utterance() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let config = ServeConfig {
            idle_timeout_ms: 1_000,
            quantum_frames: 64,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        for t in 0..u.scores.num_frames() / 2 {
            core.ingest_frame(id, score_row(&u, t), 0).unwrap();
        }
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 0).is_some() {}
        assert!(core.view(id).unwrap().frames_decoded > 0, "mid-utterance");

        // Decode progress does not count as client activity.
        assert!(core.evict_idle(999).is_empty());
        assert_eq!(core.evict_idle(1_000), vec![id]);
        assert_eq!(core.stats().evicted_idle, 1);
        assert_eq!(core.active_sessions(), 0);
        assert_eq!(core.backlog_frames(), 0);
        assert_eq!(
            core.ingest_frame(id, score_row(&u, 0), 1_001),
            Err(ServeError::UnknownSession(id))
        );
        assert_eq!(core.take_result(id), Err(ServeError::UnknownSession(id)));
        // A session with *queued* audio but a silent client is shed too.
        let id2 = core.open(2_000).unwrap();
        core.ingest_frame(id2, score_row(&u, 0), 2_000).unwrap();
        assert_eq!(core.evict_idle(3_000), vec![id2]);
        assert_eq!(core.backlog_frames(), 0);
    }

    /// Satellite: `finish()` after zero frames still produces a result
    /// (the seed-then-finalize path), not a hang or a panic.
    #[test]
    fn finish_after_zero_frames_closes_cleanly() {
        let (_lex, am, lm) = setup();
        let config = ServeConfig {
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        core.finish(id, 0).unwrap();
        assert_eq!(core.view(id).unwrap().phase, SessionPhase::Finishing);
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        assert_eq!(core.step(&mut work, 0), Some(id));
        assert_eq!(core.view(id).unwrap().phase, SessionPhase::Closed);
        let res = core.take_result(id).unwrap().expect("result ready");
        assert!(res.words.is_empty());
        assert_eq!(res.stats.frames, 0);
        // Frames after finish are refused.
        let id2 = core.open(0).unwrap();
        core.finish(id2, 0).unwrap();
        assert_eq!(
            core.ingest_frame(id2, FrameInput::Scores(vec![0.0; 4]), 0),
            Err(ServeError::Finished(id2))
        );
    }

    #[test]
    fn late_quantum_counts_a_deadline_miss() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3], 1);
        let config = ServeConfig {
            deadline_ms: 10,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        core.ingest_frame(id, score_row(&u, 0), 0).unwrap();
        let a = core.am();
        let mut work = WorkScratch::new();
        work.configure_olt(0);

        // On time: armed at t=0, completed at t=10 exactly.
        let mut lease = core.lease_next(5).expect("ready");
        lease.run(&*a, &mut work, &mut NullSink);
        core.complete_lease(lease, 10);
        assert_eq!(core.stats().deadline_misses, 0);

        // Late: completed past deadline.
        core.ingest_frame(id, score_row(&u, 1), 20).unwrap();
        let mut lease = core.lease_next(20).expect("ready");
        lease.run(&*a, &mut work, &mut NullSink);
        core.complete_lease(lease, 31);
        assert_eq!(core.stats().deadline_misses, 1);
    }

    #[test]
    fn collecting_a_result_frees_the_slot() {
        let (_lex, am, lm) = setup();
        let config = ServeConfig {
            capacity: 1,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        core.finish(id, 0).unwrap();
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        core.step(&mut work, 0);
        // Closed-but-uncollected still occupies the slot...
        assert_eq!(core.open(0), Err(RejectReason::AtCapacity));
        // ...until collected.
        core.take_result(id).unwrap().unwrap();
        assert!(core.open(0).is_ok());
    }

    #[test]
    fn stable_partial_is_served_while_leased() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let config = ServeConfig {
            quantum_frames: 8,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        push_all(&mut core, id, &u, 0);
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        core.step(&mut work, 0);
        let parked = core.stable_partial(id).unwrap();
        let lease = core.lease_next(0).expect("more quanta pending");
        // While the state is out with a "worker", the cached prefix is
        // served rather than panicking or blocking.
        assert_eq!(core.stable_partial(id).unwrap(), parked);
        core.complete_lease(lease, 0);
    }

    /// A second LM over the same 50-word vocabulary, trained on a
    /// differently-seeded corpus — a realistic "domain variant".
    fn alt_lm() -> Arc<Wfst> {
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(17), 50, DiscountConfig::default());
        Arc::new(lm_to_wfst(&model))
    }

    /// The registry acceptance test: sessions pinned to *different* LMs
    /// interleave through one scheduler (and one worker scratch) and
    /// each stays bit-identical — words, cost bits, and full search
    /// statistics — to a standalone decode against its own LM.
    #[test]
    fn interleaved_sessions_on_two_lms_match_standalone_per_lm_decodes() {
        let (lex, am, lm_a) = setup();
        let lm_b = alt_lm();
        assert_ne!(Arc::as_ptr(&lm_a), Arc::as_ptr(&lm_b));
        let word_seqs: [&[u32]; 4] = [&[3, 9, 17], &[7, 11, 4], &[22, 5], &[14, 30, 8]];
        let utts: Vec<Utterance> = word_seqs
            .iter()
            .enumerate()
            .map(|(i, w)| utt(&lex, w, 5 + i as u64))
            .collect();
        let base = DecodeConfig::default();
        assert_eq!(base.olt_entries, 0); // full-stats identity
        let pick = |i: usize| if i.is_multiple_of(2) { &lm_a } else { &lm_b };
        let standalone: Vec<_> = utts
            .iter()
            .enumerate()
            .map(|(i, u)| OtfDecoder::new(base).decode(&*am, &**pick(i), &u.scores, &mut NullSink))
            .collect();

        let config = ServeConfig {
            quantum_frames: 8,
            olt_entries: 0,
            base,
            ..Default::default()
        };
        let mut core = ServeCore::new_multi(
            config,
            Arc::clone(&am),
            vec![
                ("default".to_string(), Arc::clone(&lm_a)),
                ("alt".to_string(), Arc::clone(&lm_b)),
            ],
        );
        assert_eq!(core.lm_names(), vec!["default", "alt"]);
        let ids: Vec<SessionId> = (0..4)
            .map(|i| {
                let name = if i % 2 == 0 { None } else { Some("alt") };
                core.open_with_lm(name, 0).expect("admit")
            })
            .collect();
        for (id, u) in ids.iter().zip(&utts) {
            push_all(&mut core, *id, u, 0);
            core.finish(*id, 0).expect("finish");
        }
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        let mut order = Vec::new();
        while let Some(id) = core.step(&mut work, 0) {
            order.push(id);
        }
        let mut first4 = order[..4].to_vec();
        first4.sort_unstable();
        first4.dedup();
        assert_eq!(first4.len(), 4, "sessions genuinely interleave");
        for ((id, u), alone) in ids.iter().zip(&utts).zip(&standalone) {
            let served = core.take_result(*id).expect("known").expect("closed");
            assert_eq!(served.words, alone.words, "utt {:?}", u.words);
            assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
            assert_eq!(served.stats, alone.stats);
        }
        // The two models really disagree somewhere, or the test proves
        // nothing about per-session selection.
        let a_alone = OtfDecoder::new(base).decode(&*am, &*lm_a, &utts[1].scores, &mut NullSink);
        let b_alone = OtfDecoder::new(base).decode(&*am, &*lm_b, &utts[1].scores, &mut NullSink);
        assert_ne!(
            a_alone.cost.to_bits(),
            b_alone.cost.to_bits(),
            "variant LM must actually change the search"
        );
    }

    /// A worker OLT shared across sessions on different LMs: the memo
    /// resets on each model switch (offsets are per-LM), so transcripts
    /// still match standalone decodes.
    #[test]
    fn shared_olt_across_different_lms_does_not_corrupt_transcripts() {
        let (lex, am, lm_a) = setup();
        let lm_b = alt_lm();
        let ua = utt(&lex, &[3, 9, 17], 5);
        let ub = utt(&lex, &[7, 11, 4], 8);
        let base = DecodeConfig::builder()
            .olt_entries(512)
            .build()
            .expect("valid config");
        let alone_a = OtfDecoder::new(base).decode(&*am, &*lm_a, &ua.scores, &mut NullSink);
        let alone_b = OtfDecoder::new(base).decode(&*am, &*lm_b, &ub.scores, &mut NullSink);

        let config = ServeConfig {
            quantum_frames: 4,
            olt_entries: 512,
            base,
            ..Default::default()
        };
        let mut core = ServeCore::new_multi(
            config,
            Arc::clone(&am),
            vec![
                ("default".to_string(), Arc::clone(&lm_a)),
                ("alt".to_string(), Arc::clone(&lm_b)),
            ],
        );
        let a = core.open_with_lm(None, 0).unwrap();
        let b = core.open_with_lm(Some("alt"), 0).unwrap();
        push_all(&mut core, a, &ua, 0);
        push_all(&mut core, b, &ub, 0);
        core.finish(a, 0).unwrap();
        core.finish(b, 0).unwrap();
        let mut work = WorkScratch::new();
        work.configure_olt(512);
        while core.step(&mut work, 0).is_some() {}
        let ra = core.take_result(a).unwrap().unwrap();
        let rb = core.take_result(b).unwrap().unwrap();
        assert_eq!(ra.words, alone_a.words);
        assert_eq!(ra.cost.to_bits(), alone_a.cost.to_bits());
        assert_eq!(rb.words, alone_b.words);
        assert_eq!(rb.cost.to_bits(), alone_b.cost.to_bits());
    }

    /// Hot registry mutation: models are added and retired while a
    /// session pinned to the retired model is mid-utterance, and that
    /// session still completes bit-identically.
    #[test]
    fn hot_add_and_retire_never_disturb_live_sessions() {
        let (lex, am, lm_a) = setup();
        let lm_b = alt_lm();
        let u = utt(&lex, &[3, 9, 17], 5);
        let base = DecodeConfig::default();
        let alone = OtfDecoder::new(base).decode(&*am, &*lm_a, &u.scores, &mut NullSink);

        let config = ServeConfig {
            quantum_frames: 8,
            olt_entries: 0,
            base,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm_a, config);
        assert_eq!(core.lm_names(), vec![DEFAULT_LM]);
        // Retiring the only LM is refused.
        assert_eq!(
            core.retire_lm(DEFAULT_LM).err(),
            Some(ServeError::LastModel(DEFAULT_LM.to_string()))
        );

        // Session opens against "default", streams half its audio...
        let id = core.open(0).unwrap();
        let half = u.scores.num_frames() / 2;
        for t in 0..half {
            core.ingest_frame(id, score_row(&u, t), 0).unwrap();
        }
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 0).is_some() {}

        // ...then the registry churns underneath it.
        assert!(core.add_lm("alt", Arc::clone(&lm_b)).is_none());
        let retired = core.retire_lm(DEFAULT_LM).expect("two models now");
        assert!(Arc::ptr_eq(&retired, &lm_a));
        assert_eq!(core.lm_names(), vec!["alt"]);
        assert_eq!(
            core.open_with_lm(Some(DEFAULT_LM), 1),
            Err(ServeError::UnknownModel(DEFAULT_LM.to_string()))
        );
        // `open` now admits against the new default ("alt").
        let id2 = core.open(1).unwrap();
        assert!(Arc::ptr_eq(&core.sessions[&id2].lm, &lm_b));

        // The live session finishes the utterance on its pinned model.
        for t in half..u.scores.num_frames() {
            core.ingest_frame(id, score_row(&u, t), 1).unwrap();
        }
        core.finish(id, 1).unwrap();
        while core.step(&mut work, 1).is_some() {}
        let served = core.take_result(id).unwrap().expect("closed");
        assert_eq!(served.words, alone.words);
        assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
        assert_eq!(served.stats, alone.stats);

        // Replacing an entry hands back the old handle (hot swap).
        let swapped = core.add_lm("alt", Arc::clone(&lm_a)).expect("replaced");
        assert!(Arc::ptr_eq(&swapped, &lm_b));
        assert_eq!(core.lm_names(), vec!["alt"]);
    }

    /// Registry generation stamps are never reused: a model added
    /// after a retire — even under the same name, even if the
    /// allocator hands it the retired model's heap address — carries a
    /// fresh stamp, so a worker scratch's OLT memo keyed by the old
    /// stamp can never be revived for the new model (the ABA that a
    /// pointer-keyed binding is vulnerable to).
    #[test]
    fn registry_generations_are_unique_across_retire_and_add() {
        let (_lex, am, lm_a) = setup();
        let lm_b = alt_lm();
        let mut core = core_with(&am, &lm_a, ServeConfig::default());
        let gen0 = core.lm_entry(None).unwrap().gen;

        // Hot swap under the same name: new stamp.
        core.add_lm(DEFAULT_LM, Arc::clone(&lm_b));
        let gen1 = core.lm_entry(None).unwrap().gen;
        assert_ne!(gen0, gen1, "hot swap must change the generation");

        // Retire, then re-add under the same name: yet another stamp,
        // and sessions opened before/after the swap carry the stamp of
        // the model they were admitted with.
        let before = core.open(0).unwrap();
        core.add_lm("tmp", Arc::clone(&lm_a));
        core.retire_lm(DEFAULT_LM).unwrap();
        core.add_lm(DEFAULT_LM, Arc::clone(&lm_a));
        let gen2 = core.lm_entry(Some(DEFAULT_LM)).unwrap().gen;
        assert!(gen2 > gen1);
        let after = core.open_with_lm(Some(DEFAULT_LM), 0).unwrap();
        assert_eq!(core.sessions[&before].lm_gen, gen1);
        assert_eq!(core.sessions[&after].lm_gen, gen2);
        assert_ne!(core.sessions[&before].lm_gen, core.sessions[&after].lm_gen);
    }

    #[test]
    fn open_with_unknown_model_consumes_nothing() {
        let (_lex, am, lm) = setup();
        let mut core = core_with(&am, &lm, ServeConfig::default());
        assert_eq!(
            core.open_with_lm(Some("nope"), 0),
            Err(ServeError::UnknownModel("nope".to_string()))
        );
        assert_eq!(core.active_sessions(), 0);
        assert_eq!(core.stats().opened, 0);
        assert_eq!(core.stats().rejected_capacity, 0);
    }

    #[test]
    fn obs_export_is_a_parseable_run_record() {
        let (_lex, am, lm) = setup();
        let mut core = core_with(&am, &lm, ServeConfig::default());
        let id = core.open(0).unwrap();
        core.finish(id, 0).unwrap();
        let mut work = WorkScratch::new();
        work.configure_olt(core.config().olt_entries);
        while core.step(&mut work, 0).is_some() {}
        let jsonl = core.obs_jsonl();
        let rec = ObsRecord::parse_line(jsonl.trim()).expect("valid obs record");
        let ObsRecord::Run(pairs) = rec else {
            panic!("expected a run record");
        };
        let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("serve.sessions_opened"), Some(1.0));
        assert_eq!(get("serve.finals"), Some(1.0));
        // Load is a distribution over the run now, not a shutdown-time
        // gauge: this run peaked at one live session.
        assert_eq!(get("serve.active_sessions.max"), Some(1.0));
        assert!(get("serve.active_sessions.count").unwrap() >= 2.0);
        assert!(get("serve.pressure_milli.count").is_some());
        assert_eq!(get("serve.frames_inflight"), Some(0.0));
        assert!(get("serve.lease_frames.count").is_some());
        assert!(get("serve.lease_decode_us.count").is_some());
        assert!(core.obs_markdown().contains("serve.quanta"));
    }

    /// Acceptance: a forced deadline miss pins a flight-recorder dump
    /// whose *last* event is the missed lease with negative slack.
    #[test]
    fn deadline_miss_freezes_a_flight_dump_ending_with_negative_slack() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9], 1);
        let config = ServeConfig {
            deadline_ms: 10,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        core.ingest_frame(id, score_row(&u, 0), 0).unwrap();
        let a = core.am();
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        assert!(core.flight_frozen().is_none(), "clean so far");

        // The quantum dispatches at t=5 but completes at t=25, 15 ms
        // past its t=10 deadline.
        let mut lease = core.lease_next(5).expect("ready");
        lease.run(&*a, &mut work, &mut NullSink);
        core.complete_lease(lease, 25);

        let (reason, dump) = core.flight_frozen().expect("miss pinned a dump");
        assert_eq!(reason, "deadline_miss");
        let events: Vec<unfold_obs::FlightEvent> = dump
            .lines()
            .map(|l| match ObsRecord::parse_line(l).unwrap() {
                ObsRecord::Flight(e) => e,
                other => panic!("expected flight events, got {other:?}"),
            })
            .collect();
        // The run up to the anomaly is all there: admit → lease → miss.
        assert!(events.iter().any(|e| e.kind == FlightKind::Admit));
        assert!(events.iter().any(|e| e.kind == FlightKind::Lease));
        let last = events.last().unwrap();
        assert_eq!(last.kind, FlightKind::DeadlineMiss);
        assert_eq!(last.session, id);
        assert_eq!(last.slack_ms, -15.0, "deadline 10, completed 25");
        // The lease-grant event carried its dispatch slack.
        let grant = events.iter().find(|e| e.kind == FlightKind::Lease).unwrap();
        assert_eq!(grant.slack_ms, 5.0, "deadline 10, dispatched 5");
    }

    /// Satellite: span lifecycle. Every opened span closes exactly
    /// once, parents close after (or with) their children, and the
    /// whole span log is byte-identical across two identical runs on
    /// the logical clock.
    #[test]
    fn session_spans_close_once_nest_and_are_deterministic() {
        let run = || {
            let (lex, am, lm) = setup();
            let config = ServeConfig {
                quantum_frames: 8,
                olt_entries: 0,
                ..Default::default()
            };
            let mut core = core_with(&am, &lm, config);
            let utts = [utt(&lex, &[3, 9, 17], 5), utt(&lex, &[7, 11], 8)];
            let ids: Vec<SessionId> = utts.iter().map(|_| core.open(0).unwrap()).collect();
            for (id, u) in ids.iter().zip(&utts) {
                push_all(&mut core, *id, u, 1);
                core.finish(*id, 2).unwrap();
            }
            let mut work = WorkScratch::new();
            work.configure_olt(0);
            let mut t = 3;
            while core.step(&mut work, t).is_some() {
                t += 1;
            }
            for id in &ids {
                core.take_result(*id).unwrap().unwrap();
            }
            let (opened, closed, still_open) = core.span_counts();
            assert_eq!(opened, closed, "every span must close");
            assert_eq!(still_open, 0);
            core.spans_jsonl()
        };
        let jsonl = run();

        let mut seen = std::collections::HashMap::new();
        let mut ids_seen = std::collections::HashSet::new();
        let spans: Vec<unfold_obs::SessionSpan> = jsonl
            .lines()
            .map(|l| match ObsRecord::parse_line(l).unwrap() {
                ObsRecord::SessionSpan(s) => s,
                other => panic!("expected sspan, got {other:?}"),
            })
            .collect();
        for s in &spans {
            assert!(ids_seen.insert(s.id), "span {} closed twice", s.id);
            assert!(s.end_ms >= s.start_ms);
            seen.insert(s.id, (s.start_ms, s.end_ms));
        }
        // Children nest inside their parents: the parent opened no
        // later and (being closed later in the log or carrying a later
        // stamp) ends no earlier.
        for s in &spans {
            if s.parent != 0 {
                let &(p_start, p_end) = seen
                    .get(&s.parent)
                    .expect("parent closed too (and made it into the log)");
                assert!(p_start <= s.start_ms, "parent opens first");
                assert!(p_end >= s.end_ms, "parent closes after children");
            }
        }
        // Stage vocabulary is exactly the documented lifecycle.
        for s in &spans {
            assert!(
                ["session", "sched-wait", "lease"].contains(&s.stage.as_str()),
                "unexpected stage {:?}",
                s.stage
            );
        }
        // Deterministic: an identical run produces an identical log.
        assert_eq!(jsonl, run(), "span export must be deterministic");
    }

    #[test]
    fn abort_lease_frees_the_slot_and_reconciles_frame_accounting() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let config = ServeConfig {
            quantum_frames: 4,
            olt_entries: 0,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        push_all(&mut core, id, &u, 0);
        let accepted = core.stats().frames_accepted;

        // A worker takes a lease and "panics": the lease never comes
        // back, only the abort notification does.
        let lease = core.lease_next(1).expect("ready");
        let (sid, span, lost) = (lease.session(), lease.span_id(), lease.num_frames() as u64);
        drop(lease);
        core.abort_lease(sid, span, lost, 2);

        assert_eq!(core.active_sessions(), 0);
        assert_eq!(core.stats().worker_panics, 1);
        let st = core.stats();
        assert_eq!(
            st.frames_accepted,
            st.frames_decoded + core.backlog_frames() as u64 + st.frames_dropped,
            "accounting reconciles after the panic"
        );
        assert_eq!(st.frames_dropped, accepted, "all queued+leased rows lost");
        let (reason, dump) = core.flight_frozen().expect("panic pinned a dump");
        assert_eq!(reason, "worker_panic");
        assert!(dump.contains("worker_panic"));
        let (opened, closed, still_open) = core.span_counts();
        assert_eq!(opened, closed);
        assert_eq!(still_open, 0);
        // The slot is genuinely free.
        assert!(core.open(3).is_ok());
    }

    #[test]
    fn chrome_trace_export_covers_all_sessions() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9], 5);
        let mut core = core_with(
            &am,
            &lm,
            ServeConfig {
                olt_entries: 0,
                ..Default::default()
            },
        );
        let a = core.open(0).unwrap();
        let b = core.open(0).unwrap();
        for (id, seed) in [(a, &u), (b, &u)] {
            push_all(&mut core, id, seed, 0);
            core.finish(id, 0).unwrap();
        }
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 1).is_some() {}
        core.take_result(a).unwrap().unwrap();
        core.take_result(b).unwrap().unwrap();
        let trace = core.spans_chrome_trace();
        assert!(trace.starts_with('[') && trace.ends_with(']'));
        assert!(trace.contains(&format!("\"tid\":{a}")));
        assert!(trace.contains(&format!("\"tid\":{b}")));
        assert!(trace.contains("\"olt_hit_rate\""));
    }

    /// Drives a plain and a biased session through a core with a warm
    /// worker OLT, running each lease with `run` and returning the
    /// per-quantum `(olt_probes, olt_hits)`, the lease spans' OLT
    /// attributes, and the `serve.olt_hit_rate` gauge. With `counting`
    /// set, each quantum decodes through a fresh [`CountingSink`] and
    /// the lease keeps that sink's counts, as it did before the counts
    /// came from the session's stats.
    #[allow(clippy::type_complexity)]
    fn olt_telemetry(counting: bool) -> (Vec<(u64, u64)>, Vec<(f64, f64)>, f64) {
        use unfold_decoder::CountingSink;
        let (lex, am, lm) = setup();
        let utts = [
            utt(&lex, &[3, 9, 17, 3, 9], 5),
            utt(&lex, &[7, 11, 4, 7], 6),
        ];
        let config = ServeConfig {
            quantum_frames: 8,
            olt_entries: 64,
            ..Default::default()
        };
        let mut core = core_with(&am, &lm, config);
        core.add_bias("user", Arc::new(BiasingFst::build(&[(vec![9, 17], 2.0)])));
        let ids = [
            core.open_with_models(None, None, 0).unwrap(),
            core.open_with_models(None, Some("user"), 0).unwrap(),
        ];
        for (id, u) in ids.iter().zip(&utts) {
            push_all(&mut core, *id, u, 0);
            core.finish(*id, 0).unwrap();
        }
        let mut work = WorkScratch::new();
        work.configure_olt(core.config().olt_entries);
        let a = core.am();
        let mut quanta = Vec::new();
        while let Some(mut lease) = core.lease_next(1) {
            if counting {
                let mut counts = CountingSink::default();
                lease.run(&*a, &mut work, &mut counts);
                lease.olt_probes = counts.olt_probes;
                lease.olt_hits = counts.olt_hits;
            } else {
                lease.run(&*a, &mut work, &mut NullSink);
            }
            quanta.push((lease.olt_probes, lease.olt_hits));
            core.complete_lease(lease, 2);
        }
        let attr = |sp: &unfold_obs::SessionSpan, name: &str| {
            sp.attrs.iter().find(|(n, _)| n == name).expect("attr").1
        };
        let spans = core
            .spans
            .iter_closed()
            .filter(|sp| sp.stage == "lease")
            .map(|sp| (attr(&sp, "olt_probes"), attr(&sp, "olt_hit_rate")))
            .collect();
        core.sync_obs();
        let gauge = core.obs.gauge("serve.olt_hit_rate").get();
        (quanta, spans, gauge)
    }

    /// The lease's OLT probes and hits, read off the session's stats
    /// across the quantum, equal what a [`CountingSink`] decode counted,
    /// quantum by quantum, on plain and biased sessions; so do the lease
    /// span attributes and the `serve.olt_hit_rate` gauge.
    #[test]
    fn lease_olt_counts_from_stats_match_a_counting_sink() {
        let (quanta, spans, gauge) = olt_telemetry(false);
        let (c_quanta, c_spans, c_gauge) = olt_telemetry(true);
        assert!(quanta.len() > 2, "several quanta per session");
        assert!(
            quanta.iter().any(|&(_, hits)| hits > 0),
            "the OLT is exercised"
        );
        assert_eq!(quanta, c_quanta);
        assert_eq!(spans.len(), quanta.len());
        assert_eq!(spans, c_spans);
        assert!(gauge > 0.0);
        assert_eq!(gauge.to_bits(), c_gauge.to_bits());
    }

    /// With no scorer bound, a score row narrower than the AM's largest
    /// PDF id is refused at ingest with a typed width error and never
    /// reaches a worker; wider rows are accepted. The session carries
    /// on and decodes its well-formed frames to the standalone
    /// transcript, and the ledger reconciles with no panic.
    #[test]
    fn narrow_score_row_is_refused_at_ingest() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let width = u.scores.frame(0).len();
        let config = ServeConfig {
            olt_entries: 0,
            ..Default::default()
        };
        let alone = OtfDecoder::new(config.base).decode(&*am, &*lm, &u.scores, &mut NullSink);
        let mut core = core_with(&am, &lm, config);
        let id = core.open(0).unwrap();
        let half = u.scores.num_frames() / 2;
        for t in 0..half {
            core.ingest_frame(id, score_row(&u, t), 0).unwrap();
        }
        assert_eq!(
            core.ingest_frame(id, FrameInput::Scores(vec![0.0]), 0),
            Err(ServeError::Score(
                id,
                ScoreError::WidthMismatch {
                    expected: width,
                    got: 1
                }
            ))
        );
        assert_eq!(
            core.view(id).unwrap().queued,
            half,
            "refused row not queued"
        );
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 0).is_some() {}
        // The rest arrives one column wider than the AM needs.
        for t in half..u.scores.num_frames() {
            let mut row = u.scores.frame(t).to_vec();
            row.push(0.0);
            core.ingest_frame(id, FrameInput::Scores(row), 0).unwrap();
        }
        core.finish(id, 0).unwrap();
        while core.step(&mut work, 0).is_some() {}
        let served = core.take_result(id).unwrap().expect("closed");
        assert_eq!(served.words, alone.words);
        assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
        let st = core.stats();
        assert_eq!(st.worker_panics, 0);
        assert_eq!(st.frames_dropped, 0);
        assert_eq!(st.frames_accepted, u.scores.num_frames() as u64);
        assert_eq!(st.frames_decoded, st.frames_accepted);
        assert_eq!(core.backlog_frames(), 0);
    }

    use unfold_am::{AcousticScores, GmmModel};
    use unfold_decoder::{FrameInput, GmmScorer, PrecomputedScorer, ScoreError};

    /// Feature frames flow through the unified ingest, are scored at
    /// ingest by the bound scorer, and decode bit-identically (words,
    /// cost bits, full search statistics) to a standalone `decode()` of
    /// the rows `GmmModel::frame_costs` computes up front; without a
    /// scorer they are refused with a typed error, not a panic.
    #[test]
    fn feature_frames_through_the_core_match_standalone_decode_of_the_gmm_rows() {
        let (lex, am, lm) = setup();
        let width = utt(&lex, &[3], 1).scores.frame(0).len();
        let model = Arc::new(GmmModel::synthesize(width, 8, 2, 3.0, 41));
        let feats: Vec<Vec<f32>> = (0..30)
            .map(|t| {
                (0..8)
                    .map(|d| ((t * 31 + d * 7) % 13) as f32 * 0.25 - 1.5)
                    .collect()
            })
            .collect();
        let rows: Vec<f32> = feats.iter().flat_map(|f| model.frame_costs(f)).collect();
        let scores = AcousticScores::from_flat(rows, width);
        let config = ServeConfig {
            olt_entries: 0,
            ..Default::default()
        };
        let alone = OtfDecoder::new(config.base).decode(&*am, &*lm, &scores, &mut NullSink);

        let mut core = core_with(&am, &lm, config);
        core.set_scorer(Arc::new(GmmScorer::new(Arc::clone(&model))));
        let id = core.open(0).unwrap();
        for f in &feats {
            core.ingest_frame(id, FrameInput::Features(f.clone()), 0)
                .unwrap();
        }
        core.finish(id, 0).unwrap();
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 0).is_some() {}
        let st = core.stats();
        assert_eq!(st.frames_scored, feats.len() as u64, "all scorer-scored");
        assert_eq!(st.frames_decoded, feats.len() as u64);
        let served = core.take_result(id).unwrap().expect("closed");
        assert_eq!(served.words, alone.words);
        assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
        assert_eq!(served.stats, alone.stats);

        // No scorer bound: features are a typed refusal.
        let mut bare = core_with(&am, &lm, ServeConfig::default());
        let id = bare.open(0).unwrap();
        assert_eq!(
            bare.ingest_frame(id, FrameInput::Features(vec![0.0]), 0),
            Err(ServeError::Score(id, ScoreError::FeaturesUnsupported))
        );
        assert_eq!(bare.view(id).unwrap().queued, 0, "refused frame not queued");
    }

    /// A planted purity violation: every call after the first returns
    /// the row scored for the *previous* call, whichever session made
    /// it.
    #[derive(Debug)]
    struct PreviousRowScorer {
        inner: PrecomputedScorer,
        prev: std::sync::Mutex<Option<Vec<f32>>>,
    }

    impl AcousticScorer for PreviousRowScorer {
        fn num_pdfs(&self) -> usize {
            self.inner.num_pdfs()
        }

        fn score_into(&self, frame: &FrameInput, out: &mut Vec<f32>) -> Result<(), ScoreError> {
            let mut current = Vec::new();
            self.inner.score_into(frame, &mut current)?;
            let mut prev = self.prev.lock().expect("previous-row slot");
            let stale = prev.replace(current.clone()).unwrap_or(current);
            out.clear();
            out.extend_from_slice(&stale);
            Ok(())
        }
    }

    /// Two sessions ingested frame by frame in alternation through one
    /// shared `scorer`, then drained: whether each served result equals
    /// the standalone decode of its own utterance (words, cost bits,
    /// full statistics).
    fn interleaved_pair_matches_standalone(scorer: Arc<dyn AcousticScorer>) -> bool {
        let (lex, am, lm) = setup();
        let utts = [utt(&lex, &[3, 9, 17], 5), utt(&lex, &[7, 11, 4], 6)];
        let config = ServeConfig {
            olt_entries: 0,
            ..Default::default()
        };
        let standalone: Vec<_> = utts
            .iter()
            .map(|u| OtfDecoder::new(config.base).decode(&*am, &*lm, &u.scores, &mut NullSink))
            .collect();
        let mut core = core_with(&am, &lm, config);
        core.set_scorer(scorer);
        let ids = [core.open(0).unwrap(), core.open(0).unwrap()];
        let longest = utts.iter().map(|u| u.scores.num_frames()).max().unwrap();
        for t in 0..longest {
            for (id, u) in ids.iter().zip(&utts) {
                if t < u.scores.num_frames() {
                    core.ingest_frame(*id, FrameInput::Scores(u.scores.frame(t).to_vec()), 0)
                        .expect("ingest");
                }
            }
        }
        for id in ids {
            core.finish(id, 0).unwrap();
        }
        let mut work = WorkScratch::new();
        work.configure_olt(0);
        while core.step(&mut work, 0).is_some() {}
        ids.iter().zip(&standalone).all(|(id, alone)| {
            let served = core.take_result(*id).unwrap().expect("closed");
            served.words == alone.words
                && served.cost.to_bits() == alone.cost.to_bits()
                && served.stats == alone.stats
        })
    }

    /// One scorer is shared by every interleaved session at ingest, so
    /// the `AcousticScorer` purity contract is what keeps a session's
    /// rows its own. The server-vs-standalone comparison holds with the
    /// honest scorers and catches a stateful one.
    #[test]
    fn a_scorer_returning_the_previous_row_breaks_server_vs_standalone_identity() {
        let (lex, _, _) = setup();
        let width = utt(&lex, &[3], 1).scores.frame(0).len();
        assert!(interleaved_pair_matches_standalone(Arc::new(
            PrecomputedScorer::new(width)
        )));
        let gmm = Arc::new(GmmModel::synthesize(width, 8, 2, 3.0, 41));
        assert!(interleaved_pair_matches_standalone(Arc::new(
            GmmScorer::new(gmm)
        )));
        assert!(
            !interleaved_pair_matches_standalone(Arc::new(PreviousRowScorer {
                inner: PrecomputedScorer::new(width),
                prev: std::sync::Mutex::new(None),
            })),
            "a scorer leaking the previous call's row must change a transcript"
        );
    }
}
