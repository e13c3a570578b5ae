//! Reusable decode working memory.
//!
//! The frame loop's data structures are split by *ownership lifetime*:
//!
//! * [`SessionScratch`] — state intrinsic to one in-progress utterance:
//!   the double-buffered token populations and the word lattice. A
//!   streaming session must keep these alive between frame pushes.
//! * [`WorkScratch`] — transient buffers the frame loop borrows while
//!   it runs: the epsilon-closure worklist, the LM probe buffer, the
//!   pruning histogram staging area, and the software OLT. Nothing in
//!   here carries meaning across a frame boundary, so a multi-session
//!   scheduler keeps **one per worker** and lends it to whichever
//!   session the worker is currently advancing.
//!
//! [`DecodeScratch`] bundles both for the common one-utterance-at-a-time
//! case; it is cleared (not reallocated) between frames and utterances,
//! so after the first few frames warm the buffers, steady-state decoding
//! performs no heap allocation.
//!
//! Reuse is only legal because every structure here iterates in a
//! capacity-independent order (see the crate-private `TokenStore`):
//! decode output stays bit-identical whether the scratch is fresh or
//! warm, which the batch decoder relies on to give identical results
//! for any worker count.

use unfold_wfst::{StateId, EPSILON};

use crate::config::DecodeConfig;
use crate::lattice::Lattice;
use crate::olt::SoftOlt;
use crate::search::TokenStore;
use crate::sources::{AmSource, ArcVisit, Fetch, LmSource, MAX_BACKOFF_HOPS};

/// Per-utterance persistent search state: the live token populations
/// and the word lattice. This is the minimum a paused streaming session
/// must hold on to between frame pushes.
#[derive(Debug, Default)]
pub struct SessionScratch {
    /// Token population entering the current frame.
    pub(crate) cur: TokenStore,
    /// Population being built for the next frame (swapped with `cur`).
    pub(crate) next: TokenStore,
    /// Word lattice of the utterance in progress.
    pub(crate) lattice: Lattice,
    /// Per-session dynamic memo layer: caches *composite* (biased LM
    /// state, word) resolutions when this session decodes through a
    /// biasing adapter. Private to the session — composite entries mix
    /// in a per-session bias automaton, so unlike the worker-shared
    /// OLT they must never leak across users. Empty (disabled) unless
    /// configured; unbiased decodes never probe it.
    pub(crate) bias_cache: SoftOlt,
    /// `bias_cache_entries` the layer was built for (rebuild detection).
    bias_built_for: usize,
}

impl SessionScratch {
    /// Fresh, empty session state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares for a new utterance: clears the token populations and
    /// lattice (capacity is kept) and resets the per-session bias
    /// cache (its entries are keyed to one base-LM × bias pairing; a
    /// fresh utterance may bind a different one).
    pub fn begin(&mut self) {
        self.cur.clear();
        self.next.clear();
        self.lattice.clear();
        self.bias_cache.reset();
    }

    /// Sizes the per-session bias cache for `entries` **without**
    /// resetting a table that is already the right size (mirrors
    /// [`WorkScratch::configure_olt`]). A serve scheduler calls this
    /// when it admits a biased session; plain decodes configure it from
    /// [`DecodeConfig::bias_cache_entries`](crate::DecodeConfig).
    pub fn configure_bias_cache(&mut self, entries: usize) {
        if self.bias_built_for != entries {
            self.bias_cache = SoftOlt::new(entries);
            self.bias_built_for = entries;
        }
    }

    /// Live hypotheses right now.
    pub fn num_active(&self) -> usize {
        self.cur.len()
    }
}

/// Frame-loop transient buffers plus the software OLT. Shared by every
/// utterance a worker advances; holds nothing an individual search
/// depends on across frames (the OLT is a pure memo — see
/// [`crate::olt::SoftOlt`] — so sharing it across sessions decoding
/// against the same LM never changes any session's output).
#[derive(Debug, Default)]
pub struct WorkScratch {
    /// Epsilon-closure worklist (legacy kernel: token keys).
    pub(crate) worklist: Vec<u64>,
    /// Epsilon-closure worklist (SoA kernel: dense entry indices, so a
    /// pop is a direct lane load instead of a hash walk).
    pub(crate) worklist_idx: Vec<u32>,
    /// Per-state epsilon-arc staging buffer.
    pub(crate) eps_local: Vec<(unfold_wfst::StateId, f32, unfold_wfst::Label)>,
    /// LM binary-search probe buffer.
    pub(crate) probes: Vec<Fetch>,
    /// Histogram-pruning cost staging buffer.
    pub(crate) prune_costs: Vec<f32>,
    /// Packed survivor flags, one bit per token entering the frame
    /// (SoA kernel): built by a vectorizable compare sweep over the
    /// contiguous cost lane, consumed with `trailing_zeros` bit tricks.
    pub(crate) survivor_mask: Vec<u64>,
    /// The frame's batched probe buffer (SoA kernel): dense indices of
    /// beam survivors, compacted from the bitmask. Prefetch and
    /// expansion iterate this instead of re-testing every token.
    pub(crate) survivors: Vec<u32>,
    /// Decoded-arc staging arena (SoA kernel): the AM-side analog of
    /// the OLT memo. See [`ArcStage`].
    pub(crate) arc_stage: ArcStage,
    /// Acoustic score-row staging buffer for the feature-frame ingest
    /// path ([`crate::StreamSession::ingest_frame`]): the scorer fills
    /// it, the frame expansion reads it, nothing survives the call.
    pub(crate) score_row: Vec<f32>,
    /// Software Offset Lookup Table (empty when disabled).
    pub(crate) olt: SoftOlt,
    /// `olt_entries` the table was built for (rebuild detection).
    olt_built_for: usize,
    /// Generation stamp of the LM the OLT's entries were memoized
    /// against (see [`WorkScratch::bind_olt_model`]).
    olt_model: Option<u64>,
    /// `(am, lm, num_pdfs)` identity of the last validated model pair.
    validated: Option<(usize, usize, usize)>,
    /// `(am, num_states)` identity the arc stage is bound to (see
    /// [`WorkScratch::bind_arc_stage`]).
    stage_am: Option<(usize, usize)>,
}

impl WorkScratch {
    /// Fresh, empty worker buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-utterance reset: clears the transient buffers and resets (or
    /// rebuilds, if `config.olt_entries` changed) the software OLT.
    /// Model-validation state is kept — it is per model pair, not per
    /// utterance.
    pub fn begin(&mut self, config: &DecodeConfig) {
        self.worklist.clear();
        self.worklist_idx.clear();
        self.eps_local.clear();
        self.probes.clear();
        self.survivor_mask.clear();
        self.survivors.clear();
        self.configure_olt(config.olt_entries);
        self.olt.reset();
    }

    /// Sizes the OLT for `olt_entries` **without** resetting a table
    /// that is already the right size. A multi-session scheduler calls
    /// this once per quantum: the memo keeps accumulating across the
    /// sessions a worker serves (they share the LM, so every entry
    /// stays valid), mirroring how the hardware table is a per-engine
    /// resource rather than a per-utterance one.
    pub fn configure_olt(&mut self, olt_entries: usize) {
        if self.olt_built_for != olt_entries {
            self.olt = SoftOlt::new(olt_entries);
            self.olt_built_for = olt_entries;
        }
    }

    /// Binds the OLT memo to the LM identified by `model_gen`,
    /// resetting the table when the worker switches models. OLT entries
    /// are offsets into one specific LM's arc layout, so a scheduler
    /// serving sessions pinned to *different* LMs must call this before
    /// each quantum; consecutive quanta against the same LM keep the
    /// memo warm.
    ///
    /// `model_gen` must uniquely identify an LM for the scratch's whole
    /// lifetime — including models that have since been retired and
    /// dropped. A registry hands out monotonically increasing stamps
    /// (see `unfold_serve::ServeCore`); a heap address is **not** a
    /// valid key, because the allocator can place a newly added model
    /// at a retired model's old address (ABA), silently reviving memo
    /// entries laid out for the dead model's arc stream. A model switch
    /// also drops the cached model-validation state, so a swapped-in
    /// model is re-validated even if it reuses the old one's address.
    pub fn bind_olt_model(&mut self, model_gen: u64) {
        if self.olt_model != Some(model_gen) {
            self.olt.reset();
            self.validated = None;
            self.stage_am = None;
            self.olt_model = Some(model_gen);
        }
    }

    /// Validates `(am, lm)` once per scratch (keyed by address
    /// identity and score-row width): the checks the hot path demotes
    /// to `debug_assert!` run here instead, in one O(model) sweep.
    pub(crate) fn ensure_validated<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &mut self,
        am: &A,
        lm: &L,
        num_pdfs: usize,
    ) {
        // The LM side keys by `validation_addr`, not the wrapper's own
        // address: a biasing adapter constructed fresh each quantum
        // forwards its pinned base LM's address, so the O(model) sweep
        // still runs once per model pair instead of once per quantum.
        let key = (
            (am as *const A).cast::<u8>() as usize,
            lm.validation_addr(),
            num_pdfs,
        );
        if self.validated == Some(key) {
            return;
        }
        validate_models(am, lm, num_pdfs);
        self.validated = Some(key);
    }

    /// Binds the decoded-arc stage to `am`, resetting the arena when
    /// the scratch last staged a *different* AM (keyed by address and
    /// state count; [`WorkScratch::bind_olt_model`] additionally drops
    /// the binding on a model-generation change, the ABA-safe path).
    /// Every SoA kernel entry point calls this before touching
    /// [`WorkScratch::arc_stage`]; consecutive utterances against the
    /// same AM keep the memo warm, exactly like the OLT.
    pub(crate) fn bind_arc_stage<A: AmSource + ?Sized>(&mut self, am: &A) {
        let key = ((am as *const A).cast::<u8>() as usize, am.num_states());
        if self.stage_am != Some(key) {
            self.arc_stage.reset(am.num_states());
            self.stage_am = Some(key);
        }
    }
}

/// Decoded-arc staging arena: the AM-side analog of the software OLT.
///
/// The compressed AM stores arcs as a variable-width bit stream, so
/// every visit to a state pays the unpack cost — and HMM topologies
/// revisit the same states frame after frame (self-loops alone
/// guarantee it). The SoA kernel stages each state's decoded
/// [`ArcVisit`]s into one flat arena on first visit and replays the
/// contiguous slice thereafter; a per-state span table maps
/// `StateId -> (start, len)`.
///
/// Replay is bit-identical to re-decoding by construction: an
/// [`ArcVisit`] carries the arc *and* the `(addr, bytes)` fetch
/// footprint, and bit-stream decoding is deterministic, so the slice
/// holds exactly what `for_each_arc` would produce — same arcs, same
/// order, same trace events. Like the OLT, the stage is a pure memo:
/// it never changes any decode's output, only how fast the arcs
/// arrive. It is (re)bound to an AM via
/// [`WorkScratch::bind_arc_stage`] and persists across utterances.
///
/// The arena is soft-capped at [`ArcStage::ARENA_CAP`] visits; states
/// first seen after the cap decode through a transient buffer instead
/// of staging (bounded memory on pathologically large models, at the
/// cost of losing the memo for the tail).
#[derive(Debug, Default)]
pub(crate) struct ArcStage {
    /// Per-state `(start, len)` into `arena`; `start == UNSTAGED`
    /// means the state has not been decoded yet.
    spans: Vec<(u32, u32)>,
    /// Flat decoded-arc storage, appended in first-visit order.
    arena: Vec<ArcVisit>,
    /// Fallback decode buffer for states beyond the arena cap.
    tmp: Vec<ArcVisit>,
}

impl ArcStage {
    const UNSTAGED: u32 = u32::MAX;
    /// Soft bound on staged visits (32 bytes each — 32 MiB ceiling).
    pub(crate) const ARENA_CAP: usize = 1 << 20;

    /// Drops every staged span and resizes the span table for a model
    /// with `num_states` AM states.
    pub(crate) fn reset(&mut self, num_states: usize) {
        self.spans.clear();
        self.spans.resize(num_states, (Self::UNSTAGED, 0));
        self.arena.clear();
    }

    /// The decoded arcs of AM state `s`: a contiguous replay slice when
    /// staged, staging it first when not. Identical to what
    /// `am.for_each_arc(s, ..)` would visit, in the same order.
    #[inline]
    pub(crate) fn arcs<A: AmSource + ?Sized>(&mut self, am: &A, s: StateId) -> &[ArcVisit] {
        let i = s as usize;
        let (start, len) = self.spans[i];
        if start != Self::UNSTAGED {
            return &self.arena[start as usize..start as usize + len as usize];
        }
        if self.arena.len() < Self::ARENA_CAP {
            let start = self.arena.len();
            let arena = &mut self.arena;
            am.for_each_arc(s, &mut |v| arena.push(v));
            self.spans[i] = (start as u32, (self.arena.len() - start) as u32);
            &self.arena[start..]
        } else {
            self.tmp.clear();
            let tmp = &mut self.tmp;
            am.for_each_arc(s, &mut |v| tmp.push(v));
            &self.tmp
        }
    }

    /// Visits staged so far (test and reporting hook).
    #[cfg(test)]
    pub(crate) fn staged_visits(&self) -> usize {
        self.arena.len()
    }
}

/// Per-decoder (or per-worker) reusable working memory for the
/// one-utterance-at-a-time decode path. Create once, pass to
/// [`crate::OtfDecoder::decode_with`] for every utterance.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Per-utterance search state.
    pub(crate) session: SessionScratch,
    /// Frame-loop transient buffers.
    pub(crate) work: WorkScratch,
}

impl DecodeScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares for a new utterance: clears the token populations and
    /// lattice, and resets (or rebuilds, if `config.olt_entries`
    /// changed) the software OLT. Model-validation state is kept — it
    /// is per model pair, not per utterance.
    pub fn begin(&mut self, config: &DecodeConfig) {
        self.session.configure_bias_cache(config.bias_cache_entries);
        self.session.begin();
        self.work.begin(config);
    }
}

/// One-time model sweep backing the hot path's `debug_assert!`s: every
/// emitting AM arc's PDF id must fit the score row, and every LM
/// state's back-off chain must terminate within [`MAX_BACKOFF_HOPS`].
///
/// # Panics
/// Panics with a diagnostic on the first violation.
pub fn validate_models<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    am: &A,
    lm: &L,
    num_pdfs: usize,
) {
    for s in 0..am.num_states() as unfold_wfst::StateId {
        am.for_each_arc(s, &mut |v| {
            assert!(
                v.arc.ilabel == EPSILON || (v.arc.ilabel as usize) <= num_pdfs,
                "AM state {s}: pdf {} beyond the {num_pdfs}-wide score row",
                v.arc.ilabel,
            );
        });
    }
    for s in 0..lm.num_states() as unfold_wfst::StateId {
        let mut state = s;
        let mut hops = 0u32;
        while let Some((back, _)) = lm.backoff(state) {
            hops += 1;
            assert!(
                hops <= MAX_BACKOFF_HOPS,
                "LM state {s}: back-off chain exceeds {MAX_BACKOFF_HOPS} hops"
            );
            state = back.nextstate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unfold_am::{build_am, HmmTopology, Lexicon};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};

    fn models() -> (unfold_wfst::Wfst, unfold_wfst::Wfst) {
        let lex = Lexicon::generate(40, 18, 3);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 40,
            num_sentences: 200,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(9), 40, DiscountConfig::default());
        (am.fst, lm_to_wfst(&model))
    }

    #[test]
    fn well_formed_models_validate() {
        let (am, lm) = models();
        let pdfs = (0..am.num_states() as u32)
            .flat_map(|s| am.arcs(s).iter().map(|a| a.ilabel))
            .max()
            .unwrap() as usize;
        validate_models(&am, &lm, pdfs);
    }

    #[test]
    #[should_panic(expected = "beyond the")]
    fn narrow_score_row_is_rejected() {
        let (am, lm) = models();
        validate_models(&am, &lm, 1);
    }

    #[test]
    fn validation_runs_once_per_model_pair() {
        let (am, lm) = models();
        let pdfs = 1_000;
        let mut scratch = DecodeScratch::new();
        scratch.work.ensure_validated(&am, &lm, pdfs);
        let key = scratch.work.validated;
        assert!(key.is_some());
        scratch.begin(&DecodeConfig::default());
        assert_eq!(
            scratch.work.validated, key,
            "begin() must not drop validation"
        );
        scratch.work.ensure_validated(&am, &lm, pdfs);
        assert_eq!(scratch.work.validated, key);
    }

    #[test]
    fn begin_rebuilds_olt_on_capacity_change() {
        let mut scratch = DecodeScratch::new();
        scratch.begin(&DecodeConfig::builder().olt_entries(64).build().unwrap());
        assert_eq!(scratch.work.olt.num_entries(), 64);
        scratch.begin(&DecodeConfig::builder().olt_entries(0).build().unwrap());
        assert!(!scratch.work.olt.is_enabled());
    }

    #[test]
    fn bind_olt_model_resets_only_on_generation_change() {
        let (am, lm) = models();
        let mut work = WorkScratch::new();
        work.configure_olt(128);
        work.bind_olt_model(7);
        work.ensure_validated(&am, &lm, 1_000);
        work.olt.insert(3, 7, 11, 0.5);
        // Re-binding the same generation keeps the memo (and the
        // validation cache) warm — the cross-quantum case a worker
        // serving one LM relies on...
        work.bind_olt_model(7);
        assert_eq!(work.olt.probe(3, 7), Some((11, 0.5)));
        assert!(work.validated.is_some());
        // ...while a different generation — even for a model the
        // allocator placed at the same address — drops both the OLT
        // memo and the validation cache.
        work.bind_olt_model(8);
        assert_eq!(work.olt.probe(3, 7), None);
        assert!(
            work.validated.is_none(),
            "model switch must force re-validation"
        );
    }

    #[test]
    fn arc_stage_replays_identically_and_memoizes() {
        let (am, _) = models();
        let mut stage = ArcStage::default();
        stage.reset(am.num_states());
        let s = am.start();
        let mut direct = Vec::new();
        am.for_each_arc(s, &mut |v| direct.push(v));
        assert!(!direct.is_empty(), "start state should have arcs");
        assert_eq!(stage.arcs(&am, s), &direct[..], "staging pass diverged");
        let staged = stage.staged_visits();
        assert_eq!(stage.arcs(&am, s), &direct[..], "replay diverged");
        assert_eq!(
            stage.staged_visits(),
            staged,
            "revisit must replay, not re-stage"
        );
    }

    #[test]
    fn bind_arc_stage_keeps_memo_for_same_am_and_resets_on_switch() {
        let (am, other) = models();
        let mut work = WorkScratch::new();
        work.bind_arc_stage(&am);
        let _ = work.arc_stage.arcs(&am, am.start());
        let staged = work.arc_stage.staged_visits();
        assert!(staged > 0);
        // Same AM: warm across utterances, like the OLT.
        work.bind_arc_stage(&am);
        assert_eq!(work.arc_stage.staged_visits(), staged);
        // Different AM: stale spans describe the old arc layout.
        work.bind_arc_stage(&other);
        assert_eq!(
            work.arc_stage.staged_visits(),
            0,
            "AM switch must reset the stage"
        );
    }

    #[test]
    fn bind_olt_model_change_drops_arc_stage_binding() {
        let (am, _) = models();
        let mut work = WorkScratch::new();
        work.bind_olt_model(1);
        work.bind_arc_stage(&am);
        let _ = work.arc_stage.arcs(&am, am.start());
        assert!(work.arc_stage.staged_visits() > 0);
        // A model-generation change is the ABA-safe invalidation path:
        // the next bind must restart the arena cold even though the AM
        // sits at the same address.
        work.bind_olt_model(2);
        work.bind_arc_stage(&am);
        assert_eq!(work.arc_stage.staged_visits(), 0);
    }

    #[test]
    fn configure_olt_resizes_without_resetting_same_size() {
        let mut work = WorkScratch::new();
        work.configure_olt(128);
        assert_eq!(work.olt.num_entries(), 128);
        work.olt.insert(3, 7, 11, 0.5);
        // Same size: the memo must survive.
        work.configure_olt(128);
        assert_eq!(work.olt.probe(3, 7), Some((11, 0.5)));
        // New size: rebuilt empty.
        work.configure_olt(256);
        assert_eq!(work.olt.probe(3, 7), None);
    }
}
