//! Decode-time trace: the stream of architectural events the
//! accelerator simulator consumes.
//!
//! The decoders call into a [`TraceSink`] as they work; the simulator
//! implements the sink and models caches/DRAM/pipeline online, so no
//! trace is ever materialized in memory. [`NullSink`] is for pure
//! decoding, [`CountingSink`] for tests and quick statistics.
//!
//! The SoA kernel is generic over its sink. The frame entry points
//! test [`TraceSink::is_null`] once per call and, when it holds, run a
//! copy of the kernel compiled for [`NullSink`], in which every event
//! call inlines to nothing; any other sink, erased or not, runs the
//! copy that dispatches through `dyn TraceSink`.

use unfold_wfst::{Label, StateId};

/// The decoder phases the profiler attributes wall time to. Emitted as
/// [`TraceSink::stage_enter`]/[`TraceSink::stage_exit`] pairs; stages
/// nest (an LM lookup happens inside arc expansion) and timing sinks
/// are expected to attribute time exclusively to the innermost stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStage {
    /// Acoustic likelihood computation (score synthesis in this
    /// reproduction; a neural scorer in a real system). Emitted by the
    /// caller that produces scores, not by the search itself.
    AcousticScoring,
    /// Token expansion over AM arcs, including the non-emitting
    /// (epsilon) closure.
    ArcExpansion,
    /// LM word resolution: binary-search probes plus back-off walks.
    LmLookup,
    /// Beam/histogram threshold selection.
    Pruning,
    /// Word-lattice backtrace at the end of the search.
    Lattice,
}

/// The sub-phases of the SoA frame kernel, for sinks that opt in to
/// kernel timing (see [`TraceSink::wants_kernel_timing`]). Unlike
/// [`DecodeStage`] events these are *observability only*: they are not
/// part of the architectural trace, are skipped entirely unless a sink
/// asks for them, and are excluded from trace-identity comparisons
/// between kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPhase {
    /// Beam/histogram threshold fold over the contiguous cost lane plus
    /// packed survivor-bitmask construction and compaction.
    Threshold,
    /// The batched probe-buffer pass: prefetching the survivors' AM/LM
    /// state storage before expansion.
    BatchProbe,
    /// Emitting-arc expansion over the compacted survivor list.
    Expand,
    /// Non-emitting (epsilon) closure to a fixed point.
    Closure,
}

impl KernelPhase {
    /// All kernel phases, in execution order.
    pub const ALL: [KernelPhase; 4] = [
        KernelPhase::Threshold,
        KernelPhase::BatchProbe,
        KernelPhase::Expand,
        KernelPhase::Closure,
    ];

    /// Stable snake_case name used in telemetry exports.
    pub const fn name(self) -> &'static str {
        match self {
            KernelPhase::Threshold => "threshold",
            KernelPhase::BatchProbe => "batch_probe",
            KernelPhase::Expand => "expand",
            KernelPhase::Closure => "closure",
        }
    }

    /// Dense index (position in [`KernelPhase::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl DecodeStage {
    /// All stages, in pipeline order.
    pub const ALL: [DecodeStage; 5] = [
        DecodeStage::AcousticScoring,
        DecodeStage::ArcExpansion,
        DecodeStage::LmLookup,
        DecodeStage::Pruning,
        DecodeStage::Lattice,
    ];

    /// Stable snake_case name used in telemetry exports.
    pub fn name(self) -> &'static str {
        match self {
            DecodeStage::AcousticScoring => "acoustic_scoring",
            DecodeStage::ArcExpansion => "arc_expansion",
            DecodeStage::LmLookup => "lm_lookup",
            DecodeStage::Pruning => "pruning",
            DecodeStage::Lattice => "lattice",
        }
    }

    /// Dense index (position in [`DecodeStage::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Receiver of decode events. All methods have empty defaults so sinks
/// implement only what they model.
///
/// Addresses are byte addresses in the flat map of
/// [`crate::sources::addr`]; `bytes` is the record size fetched.
pub trait TraceSink {
    /// A new frame begins with `active` live tokens.
    fn frame_start(&mut self, _frame: usize, _active: usize) {}
    /// The frame finished: `active` tokens survive, spanning costs
    /// `[best_cost, worst_cost]`. Both costs are `f32::INFINITY` when
    /// nothing survived.
    fn frame_end(&mut self, _frame: usize, _active: usize, _best_cost: f32, _worst_cost: f32) {}
    /// A profiled stage begins.
    fn stage_enter(&mut self, _stage: DecodeStage) {}
    /// The innermost profiled stage ends.
    fn stage_exit(&mut self, _stage: DecodeStage) {}
    /// `from` ends and `to` begins at the same instant. Emitted where
    /// the decoder moves directly between adjacent stages, so a timing
    /// sink can mark the boundary with a single clock read. Defaults to
    /// exit-then-enter, which every sink already handles.
    fn stage_switch(&mut self, from: DecodeStage, to: DecodeStage) {
        self.stage_exit(from);
        self.stage_enter(to);
    }
    /// A state record was fetched (AM, LM, or composed graph).
    fn state_fetch(&mut self, _addr: u64) {}
    /// An AM (or composed-graph) arc record was fetched.
    fn am_arc_fetch(&mut self, _addr: u64, _bytes: u32) {}
    /// An LM lookup for `(lm_state, word)` begins. If the simulator's
    /// Offset Lookup Table hits, it may skip the subsequent
    /// [`TraceSink::lm_arc_fetch`] probes for this lookup.
    fn lm_lookup(&mut self, _lm_state: StateId, _word: Label) {}
    /// One LM arc fetch (binary-search probe or back-off arc read).
    fn lm_arc_fetch(&mut self, _addr: u64, _bytes: u32) {}
    /// The LM lookup resolved after `backoff_hops` back-off traversals.
    fn lm_resolved(&mut self, _lm_state: StateId, _word: Label, _backoff_hops: u32) {}
    /// An acoustic score was read from the likelihood buffer.
    fn acoustic_fetch(&mut self, _frame: usize, _pdf: Label) {}
    /// A token was written to the hash table (on-chip) with `key`.
    fn hash_insert(&mut self, _key: u64) {}
    /// Word-lattice data was written to memory.
    fn token_store(&mut self, _addr: u64, _bytes: u32) {}
    /// A hypothesis was abandoned mid-back-off by preemptive pruning.
    fn preemptive_prune(&mut self) {}
    /// The decoder's *software* OLT was probed for `(lm_state, word)`.
    /// On a hit the binary-search probes for this lookup step are
    /// skipped (no [`TraceSink::lm_arc_fetch`] events follow). Only
    /// emitted while `DecodeConfig::olt_entries > 0`.
    fn olt_probe(&mut self, _lm_state: StateId, _word: Label, _hit: bool) {}
    /// A resolved lookup was installed into the software OLT; `evicted`
    /// says whether a live entry was displaced.
    fn olt_install(&mut self, _evicted: bool) {}
    /// Whether this sink wants [`TraceSink::kernel_phase`] timing. The
    /// kernel reads this once per frame and skips every clock read when
    /// it returns `false`, so sinks that don't time (the default) pay
    /// nothing.
    fn wants_kernel_timing(&self) -> bool {
        false
    }
    /// `ns` nanoseconds were spent in kernel sub-phase `phase` this
    /// frame. Only emitted when [`TraceSink::wants_kernel_timing`]
    /// returned `true` at frame start, and only by the SoA kernel.
    /// Observability only — never part of trace-identity comparisons.
    fn kernel_phase(&mut self, _phase: KernelPhase, _ns: u64) {}
    /// Whether this sink ignores every event. When it returns `true`
    /// the decoder may run its search with a [`NullSink`] in place of
    /// this sink, so none of this sink's methods is called. Only a
    /// sink whose every method is a no-op (and whose
    /// [`TraceSink::wants_kernel_timing`] is `false`) may return
    /// `true`; [`NullSink`] is the only one that does.
    fn is_null(&self) -> bool {
        false
    }
}

/// Sink that drops everything (pure functional decoding). A decode
/// over it, passed directly or erased to `&mut dyn TraceSink`, runs
/// the kernel copy compiled for `NullSink` (see [`TraceSink::is_null`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn is_null(&self) -> bool {
        true
    }
}

/// Sink that counts events; handy in tests and for first-order traffic
/// estimates without running the full simulator.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Frames seen.
    pub frames: usize,
    /// Total active tokens summed over frames.
    pub total_active: u64,
    /// State record fetches.
    pub state_fetches: u64,
    /// AM arc fetches.
    pub am_arc_fetches: u64,
    /// AM arc bytes fetched.
    pub am_arc_bytes: u64,
    /// LM lookups issued.
    pub lm_lookups: u64,
    /// LM arc fetches (probes + back-off reads).
    pub lm_arc_fetches: u64,
    /// LM arc bytes fetched.
    pub lm_arc_bytes: u64,
    /// Lookups that needed at least one back-off hop.
    pub backed_off_lookups: u64,
    /// Back-off hops summed over all resolved lookups.
    pub total_backoff_hops: u64,
    /// Acoustic score reads.
    pub acoustic_fetches: u64,
    /// Token hash insertions.
    pub hash_inserts: u64,
    /// Lattice bytes written.
    pub token_bytes: u64,
    /// Preemptively pruned hypotheses.
    pub preemptive_prunes: u64,
    /// Software-OLT probes.
    pub olt_probes: u64,
    /// Software-OLT hits.
    pub olt_hits: u64,
    /// Software-OLT installs.
    pub olt_installs: u64,
    /// Software-OLT installs that displaced a live entry.
    pub olt_evictions: u64,
}

impl CountingSink {
    /// Zeroes every counter in place, so one sink can count several
    /// decodes in turn.
    pub fn reset(&mut self) {
        *self = CountingSink::default();
    }

    /// OLT hit rate over the counted window, or 0 with no probes.
    pub fn olt_hit_rate(&self) -> f64 {
        if self.olt_probes == 0 {
            0.0
        } else {
            self.olt_hits as f64 / self.olt_probes as f64
        }
    }
}

impl TraceSink for CountingSink {
    fn frame_start(&mut self, _frame: usize, active: usize) {
        self.frames += 1;
        self.total_active += active as u64;
    }
    fn state_fetch(&mut self, _addr: u64) {
        self.state_fetches += 1;
    }
    fn am_arc_fetch(&mut self, _addr: u64, bytes: u32) {
        self.am_arc_fetches += 1;
        self.am_arc_bytes += u64::from(bytes);
    }
    fn lm_lookup(&mut self, _lm_state: StateId, _word: Label) {
        self.lm_lookups += 1;
    }
    fn lm_arc_fetch(&mut self, _addr: u64, bytes: u32) {
        self.lm_arc_fetches += 1;
        self.lm_arc_bytes += u64::from(bytes);
    }
    fn lm_resolved(&mut self, _lm_state: StateId, _word: Label, backoff_hops: u32) {
        if backoff_hops > 0 {
            self.backed_off_lookups += 1;
        }
        self.total_backoff_hops += u64::from(backoff_hops);
    }
    fn acoustic_fetch(&mut self, _frame: usize, _pdf: Label) {
        self.acoustic_fetches += 1;
    }
    fn hash_insert(&mut self, _key: u64) {
        self.hash_inserts += 1;
    }
    fn token_store(&mut self, _addr: u64, bytes: u32) {
        self.token_bytes += u64::from(bytes);
    }
    fn preemptive_prune(&mut self) {
        self.preemptive_prunes += 1;
    }
    fn olt_probe(&mut self, _lm_state: StateId, _word: Label, hit: bool) {
        self.olt_probes += 1;
        if hit {
            self.olt_hits += 1;
        }
    }
    fn olt_install(&mut self, evicted: bool) {
        self.olt_installs += 1;
        if evicted {
            self.olt_evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_accumulates() {
        let mut s = CountingSink::default();
        s.frame_start(0, 5);
        s.frame_start(1, 7);
        s.am_arc_fetch(0x100, 16);
        s.am_arc_fetch(0x110, 16);
        s.lm_lookup(3, 9);
        s.lm_arc_fetch(0xC000_0000, 6);
        s.lm_resolved(3, 9, 2);
        s.lm_resolved(3, 10, 0);
        s.lm_resolved(4, 11, 3);
        s.token_store(0, 8);
        s.preemptive_prune();
        assert_eq!(s.frames, 2);
        assert_eq!(s.total_active, 12);
        assert_eq!(s.am_arc_fetches, 2);
        assert_eq!(s.am_arc_bytes, 32);
        assert_eq!(s.lm_lookups, 1);
        assert_eq!(s.backed_off_lookups, 2, "only the hop>0 resolutions count");
        assert_eq!(
            s.total_backoff_hops, 5,
            "hops accumulate across resolutions"
        );
        assert_eq!(s.token_bytes, 8);
        assert_eq!(s.preemptive_prunes, 1);

        s.olt_probe(3, 9, true);
        s.olt_probe(3, 10, false);
        assert_eq!(s.olt_hit_rate(), 0.5);
        s.reset();
        assert_eq!(s.frames, 0);
        assert_eq!(s.total_backoff_hops, 0);
        assert_eq!(s.olt_hit_rate(), 0.0);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut s = NullSink;
        s.frame_start(0, 1);
        s.state_fetch(0);
        s.preemptive_prune();
        assert!(s.is_null());
        assert!(!s.wants_kernel_timing());
        let erased: &dyn TraceSink = &s;
        assert!(erased.is_null(), "the override survives erasure");
        assert!(!CountingSink::default().is_null());
    }
}
