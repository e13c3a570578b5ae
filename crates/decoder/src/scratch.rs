//! Reusable decode working memory.
//!
//! The frame loop's data structures are split by *ownership lifetime*:
//!
//! * [`SessionScratch`] — state intrinsic to one in-progress utterance:
//!   the live token population, parked as bare lanes, and the word
//!   lattice. A streaming session must keep these alive between frame
//!   pushes, and nothing else.
//! * [`WorkScratch`] — everything the frame loop borrows while it
//!   runs: the frame's two hashed token stores (the population being
//!   expanded and the one being built), the epsilon-closure worklist,
//!   the LM probe buffer, the pruning staging areas, the decoded-arc
//!   stage and the software OLT. Nothing in here carries meaning
//!   across a frame boundary, so a multi-session scheduler keeps **one
//!   per worker** and lends it to whichever session the worker is
//!   currently advancing.
//!
//! # What a paused session costs
//!
//! A frame reads the population entering it and builds the next one in
//! a crate-private `TokenStore`: lanes plus an open-addressing index,
//! sized to the widest frame its owner has seen. Only the builder needs
//! the index, so the worker owns the stores. A streaming session parks
//! just its live tokens — 16 bytes each (an 8-byte key, a 4-byte cost,
//! a 4-byte backpointer) — in lanes that give capacity back after a
//! wide frame (see `TokenLanes::park`). Parking is one lane copy per
//! frame push; the next push expands straight out of the parked lanes.
//! Beside the tokens a session holds its lattice (the backpointer
//! entries, plus the expansion tape when lattice recording is on) and,
//! only when it decodes through a composing LM, its bias memo. On
//! Kaldi-TEDLIUM a paused session averages ~70 live tokens, ~1.1 KiB,
//! and on the `serve_paced` benchmark a session's whole share of the
//! server's resident set is ~12 KiB.
//!
//! The one-utterance path ([`DecodeScratch`] through
//! [`crate::OtfDecoder`]) never parks: its population stays in the
//! worker's two stores from the seed to the final backtrace, each
//! build swapped from `next` into `cur`, so an offline decode copies
//! no token.
//!
//! [`DecodeScratch`] bundles both halves for the common
//! one-utterance-at-a-time case; it is cleared (not reallocated)
//! between frames and utterances, so after the first few frames warm
//! the buffers, steady-state decoding performs no heap allocation.
//!
//! Reuse is only legal because every structure here iterates in a
//! capacity-independent order (see the crate-private `TokenStore`):
//! decode output stays bit-identical whether the scratch is fresh or
//! warm, which the batch decoder relies on to give identical results
//! for any worker count.

use unfold_wfst::{Arc, StateId, EPSILON};

use crate::config::DecodeConfig;
use crate::lattice::Lattice;
use crate::olt::SoftOlt;
use crate::search::{TokenLanes, TokenStore};
use crate::sources::{AmSource, Fetch, LmSource, MAX_BACKOFF_HOPS};

/// Per-utterance persistent search state: the live token population
/// and the word lattice. This is the minimum a paused streaming session
/// must hold on to between frame pushes.
///
/// The population is parked as bare lanes, 16 bytes a token, with no
/// hash index: nothing probes a population between frames, and the
/// next frame builds its successor in the worker's store. A streaming
/// session's parked lanes stay within four times its live tokens
/// (floored at 64 tokens) after every push. The one-utterance path
/// leaves them empty: its population lives in the worker's
/// [`WorkScratch`] throughout.
#[derive(Debug, Default)]
pub struct SessionScratch {
    /// Live token population between frame pushes (streaming only).
    pub(crate) live: TokenLanes,
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

    /// Prepares for a new utterance: clears the parked population and
    /// the lattice (capacity is kept) and resets the per-session bias
    /// cache (its entries are keyed to one base-LM × bias pairing; a
    /// fresh utterance may bind a different one).
    pub fn begin(&mut self) {
        self.live.clear();
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

    /// Live hypotheses parked right now (a streaming session's; the
    /// one-utterance path parks none).
    pub fn num_active(&self) -> usize {
        self.live.len()
    }
}

/// Where the population entering a frame lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameSource {
    /// The worker's `cur` store: the one-utterance path, which swaps
    /// each build into it and never parks.
    Worker,
    /// The session's parked lanes ([`SessionScratch`]): a streaming
    /// push expands straight out of them.
    Parked,
}

/// Frame-loop working memory plus the software OLT. Shared by every
/// utterance a worker advances; holds nothing an individual search
/// depends on across frames (the OLT is a pure memo — see
/// [`crate::olt::SoftOlt`] — so sharing it across sessions decoding
/// against the same LM never changes any session's output).
///
/// The frame's token stores live here, grown to the widest frame the
/// worker has decoded, instead of in every session. Every build — a
/// seed or a frame — goes into `next`, which it clears first, so a
/// decode that panicked mid-build leaves the stores reusable by the
/// next session. The one-utterance path swaps each build into `cur`
/// and expands from there; streaming parks each build in the session
/// and never touches `cur`, so a worker that only streams keeps one
/// store.
#[derive(Debug, Default)]
pub struct WorkScratch {
    /// The population entering the frame on the one-utterance path.
    pub(crate) cur: TokenStore,
    /// The population being built: by the seed, or by a frame.
    pub(crate) next: TokenStore,
    /// Epsilon-closure worklist of dense entry indices, so a pop is a
    /// direct lane load instead of a hash walk. Expansion fills it with
    /// the closure's seeds.
    pub(crate) worklist: Vec<u32>,
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
    /// to `debug_assert!` run here instead ([`validate_models`]: two
    /// comparisons for compressed models, an O(model) sweep for other
    /// sources, which is what the memo saves).
    pub(crate) fn ensure_validated<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &mut self,
        am: &A,
        lm: &L,
        num_pdfs: usize,
    ) {
        // The LM side keys by `validation_addr`, not the wrapper's own
        // address: a biasing adapter constructed fresh each quantum
        // forwards its pinned base LM's address, so the check still
        // runs once per model pair instead of once per quantum.
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
    /// Every kernel entry point calls this before touching
    /// [`WorkScratch::arc_stage`]; consecutive utterances against the
    /// same AM keep the memo warm, exactly like the OLT.
    ///
    /// `observe` is whether the decode's sink sees arc fetches (it is
    /// not [`crate::NullSink`]). The first observing bind also resets
    /// the stage and puts it in observing mode for good (see
    /// [`ArcStage`]), so every replay it hands out from then on has
    /// its fetch footprints beside it.
    pub(crate) fn bind_arc_stage<A: AmSource + ?Sized>(&mut self, am: &A, observe: bool) {
        let key = ((am as *const A).cast::<u8>() as usize, am.num_states());
        if self.stage_am != Some(key) || (observe && !self.arc_stage.observing) {
            self.arc_stage.reset(am, observe);
            self.stage_am = Some(key);
        }
    }
}

/// Decoded-arc staging arena: the AM-side analog of the software OLT.
///
/// The compressed AM stores arcs as a variable-width bit stream, so
/// every visit to a state pays the unpack cost — and HMM topologies
/// revisit the same states frame after frame (self-loops alone
/// guarantee it). The kernel stages each state's decoded [`Arc`]s, 16
/// bytes each, into one flat arena on first visit and replays the
/// contiguous slice thereafter; a per-state span table maps
/// `StateId -> (start, len)`.
///
/// The arena holds only what the search reads. An arc's fetch
/// footprint — the `(addr, bytes)` of its record, which
/// [`TraceSink::am_arc_fetch`](crate::TraceSink::am_arc_fetch)
/// reports — goes into a parallel lane, and only once the stage is in
/// *observing* mode: the first decode whose sink is not
/// [`crate::NullSink`] resets the stage and switches the mode on (see
/// [`WorkScratch::bind_arc_stage`]), and nothing switches it off. A
/// worker that only ever decodes over `NullSink` never allocates the
/// lane.
///
/// Replay is bit-identical to re-decoding by construction: bit-stream
/// decoding is deterministic, so a span holds exactly the arcs
/// `for_each_arc` would produce, in the same order. In observing mode
/// the footprint lane holds, beside each arc, the address and size of
/// the [`ArcVisit`](crate::ArcVisit) that produced it, so an observed
/// decode emits the same trace events as re-decoding would. No span
/// lacks its footprints once the stage observes, because the switch
/// drops every span first. Like the OLT, the stage is a pure memo: it
/// never changes any decode's output, only how fast the arcs arrive.
/// It is (re)bound to an AM via [`WorkScratch::bind_arc_stage`] and
/// persists across utterances.
///
/// The top bit of every span's `len` word says whether the state has
/// an ε-input arc. [`ArcStage::reset`] seeds it for every state from
/// [`AmSource::eps_flags`] (a compressed AM's record bits, proved at
/// bind), staged or not. In both HMM topologies only word-end states
/// have one, so [`ArcStage::eps_arcs`] lets the ε-closure skip every
/// other state without staging or scanning it, and [`EpsFlags`] lets
/// expansion leave such states out of the closure's worklist
/// altogether.
///
/// The arena is soft-capped at [`ArcStage::ARENA_CAP`] visits; states
/// first seen after the cap decode through a transient buffer (with
/// its own footprint lane) instead of staging: bounded memory on
/// pathologically large models, at the cost of losing the memo for the
/// tail. Their spans stay unstaged but keep the seeded flag.
///
/// A lookup of a staged state is the hot path and inlines into the
/// kernel; staging and the over-cap decode run out of line.
#[derive(Debug, Default)]
pub(crate) struct ArcStage {
    /// Per-state `(start, len)` into `arena`; `start == UNSTAGED`
    /// means the state has not been decoded yet. `len` carries
    /// [`ArcStage::EPS_FLAG`] when the state has an ε-input arc, from
    /// the reset on, staged or not.
    spans: Vec<(u32, u32)>,
    /// Flat decoded-arc storage, appended in first-visit order.
    arena: Vec<Arc>,
    /// Fetch footprints parallel to `arena`; filled only in observing
    /// mode.
    footprints: Vec<Fetch>,
    /// Fallback decode buffer for states beyond the arena cap.
    tmp: Vec<Arc>,
    /// Fetch footprints parallel to `tmp`, in observing mode.
    tmp_footprints: Vec<Fetch>,
    /// Whether staging records footprints (see the type doc).
    observing: bool,
    /// A test's arena bound in place of [`ArcStage::ARENA_CAP`], so
    /// decodes can reach the over-cap path on small models.
    #[cfg(test)]
    test_cap: Option<usize>,
}

/// A replayed state: its decoded arcs and, for an observing decode,
/// their fetch footprints (`footprints[i]` belongs to `arcs[i]`);
/// empty otherwise.
pub(crate) type Replay<'a> = (&'a [Arc], &'a [Fetch]);

/// Shared view of the stage's ε flags, handed out next to a replay
/// slice by [`ArcStage::arcs_and_eps`] so the expansion loop can ask
/// about destination states while it walks a source state's arcs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpsFlags<'a>(&'a [(u32, u32)]);

impl EpsFlags<'_> {
    /// Whether the ε-closure has to look at state `s`: it has an
    /// ε-input arc. One bit test, staged or not.
    #[inline(always)]
    pub(crate) fn has_eps(self, s: StateId) -> bool {
        self.0[s as usize].1 & ArcStage::EPS_FLAG != 0
    }
}

impl ArcStage {
    const UNSTAGED: u32 = u32::MAX;
    /// Top bit of a span's `len` word: the state has an ε-input arc.
    const EPS_FLAG: u32 = 1 << 31;
    /// Soft bound on staged visits (16 bytes each — 16 MiB ceiling,
    /// twice that in observing mode with the footprint lane).
    pub(crate) const ARENA_CAP: usize = 1 << 20;

    /// Drops every staged span and sizes the span table for `am`,
    /// seeding each state's ε flag from [`AmSource::eps_flags`].
    /// `observe` switches observing mode on; nothing switches it off.
    pub(crate) fn reset<A: AmSource + ?Sized>(&mut self, am: &A, observe: bool) {
        self.spans.clear();
        let flags = am.eps_flags();
        debug_assert_eq!(flags.len(), am.num_states());
        self.spans.extend(
            flags
                .into_iter()
                .map(|eps| (Self::UNSTAGED, if eps { Self::EPS_FLAG } else { 0 })),
        );
        self.arena.clear();
        self.footprints.clear();
        self.observing |= observe;
    }

    /// The decoded arcs of AM state `s`, with their footprints when
    /// `observe`, plus a view of every state's ε flag for the
    /// expansion loop. The arcs are a contiguous replay slice when
    /// staged, staging them first when not: identical to what
    /// `am.for_each_arc(s, ..)` would visit, in the same order.
    #[inline(always)]
    pub(crate) fn arcs_and_eps<A: AmSource + ?Sized>(
        &mut self,
        am: &A,
        s: StateId,
        observe: bool,
    ) -> (Replay<'_>, EpsFlags<'_>) {
        let this = self.lookup(am, s);
        (this.replay(s, observe), EpsFlags(&this.spans))
    }

    /// The decoded arcs of `s` (with their footprints when `observe`)
    /// for the ε-closure: `None` when `s` has no ε-input arc, so the
    /// caller can skip it without staging or scanning it.
    #[inline]
    pub(crate) fn eps_arcs<A: AmSource + ?Sized>(
        &mut self,
        am: &A,
        s: StateId,
        observe: bool,
    ) -> Option<Replay<'_>> {
        if self.spans[s as usize].1 & Self::EPS_FLAG == 0 {
            return None;
        }
        Some(self.lookup(am, s).replay(s, observe))
    }

    /// Makes state `s` replayable: staged already (the hot path), or
    /// decoded now by [`ArcStage::stage`].
    #[inline(always)]
    fn lookup<A: AmSource + ?Sized>(&mut self, am: &A, s: StateId) -> &Self {
        if self.spans[s as usize].0 == Self::UNSTAGED {
            self.stage(am, s);
        }
        self
    }

    /// The replay of a state [`ArcStage::lookup`] just made
    /// replayable: its span, or the transient buffer when it lies past
    /// the cap. The footprints are read only when `observe`, and an
    /// observing decode's bind put the stage in observing mode, so they
    /// are there.
    #[inline(always)]
    fn replay(&self, s: StateId, observe: bool) -> Replay<'_> {
        debug_assert!(!observe || self.observing, "observed replay, blind stage");
        let (start, packed) = self.spans[s as usize];
        if start == Self::UNSTAGED {
            let footprints: &[Fetch] = if observe { &self.tmp_footprints } else { &[] };
            return (&self.tmp, footprints);
        }
        let (start, len) = (start as usize, (packed & !Self::EPS_FLAG) as usize);
        let span = start..start + len;
        let footprints: &[Fetch] = if observe {
            &self.footprints[span.clone()]
        } else {
            &[]
        };
        (&self.arena[span], footprints)
    }

    /// First visit to state `s`: decodes its arcs into the arena and
    /// records the span, or, past the cap, into the transient buffer.
    /// Footprints go beside them in observing mode.
    #[cold]
    #[inline(never)]
    fn stage<A: AmSource + ?Sized>(&mut self, am: &A, s: StateId) {
        let observing = self.observing;
        let flag = self.spans[s as usize].1 & Self::EPS_FLAG;
        if self.arena.len() < self.cap() {
            let start = self.arena.len();
            let footprints = observing.then_some(&mut self.footprints);
            let eps = unpack(am, s, &mut self.arena, footprints);
            debug_assert_eq!(eps, flag != 0, "state {s}: seeded ε flag");
            let len = (self.arena.len() - start) as u32;
            debug_assert!(len < Self::EPS_FLAG, "state {s}: {len} arcs");
            self.spans[s as usize] = (start as u32, len | flag);
        } else {
            self.tmp.clear();
            self.tmp_footprints.clear();
            let footprints = observing.then_some(&mut self.tmp_footprints);
            let eps = unpack(am, s, &mut self.tmp, footprints);
            debug_assert_eq!(eps, flag != 0, "state {s}: seeded ε flag");
        }
    }

    /// The arena bound in visits.
    #[inline]
    fn cap(&self) -> usize {
        #[cfg(test)]
        if let Some(cap) = self.test_cap {
            return cap;
        }
        Self::ARENA_CAP
    }

    /// Caps the arena at `visits` instead of [`ArcStage::ARENA_CAP`].
    #[cfg(test)]
    pub(crate) fn set_cap(&mut self, visits: usize) {
        self.test_cap = Some(visits);
    }

    /// Visits staged so far (test and reporting hook).
    #[cfg(test)]
    pub(crate) fn staged_visits(&self) -> usize {
        self.arena.len()
    }

    /// Whether a footprint lane was ever allocated (test hook).
    #[cfg(test)]
    pub(crate) fn holds_footprints(&self) -> bool {
        self.footprints.capacity() + self.tmp_footprints.capacity() > 0
    }
}

/// Appends the arcs of AM state `s` to `arcs`, and their fetch
/// footprints to `footprints` when given. Returns whether any of them
/// is an ε-input arc.
fn unpack<A: AmSource + ?Sized>(
    am: &A,
    s: StateId,
    arcs: &mut Vec<Arc>,
    mut footprints: Option<&mut Vec<Fetch>>,
) -> bool {
    let mut eps = false;
    am.for_each_arc(s, &mut |v| {
        eps |= v.arc.ilabel == EPSILON;
        arcs.push(v.arc);
        if let Some(lane) = footprints.as_deref_mut() {
            lane.push((v.addr, v.bytes));
        }
    });
    eps
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

    /// Prepares for a new utterance: clears the lattice, and resets (or
    /// rebuilds, if `config.olt_entries` changed) the software OLT (the
    /// seed clears the store it builds into). Model-validation state is
    /// kept — it is per model pair, not per utterance.
    pub fn begin(&mut self, config: &DecodeConfig) {
        self.session.configure_bias_cache(config.bias_cache_entries);
        self.session.begin();
        self.work.begin(config);
    }
}

/// One-time model check backing the hot path's `debug_assert!`s: every
/// emitting AM arc's PDF id must fit the score row, and every LM
/// state's back-off chain must terminate within [`MAX_BACKOFF_HOPS`].
/// Two comparisons over [`AmSource::max_pdf`] and
/// [`LmSource::max_backoff_hops`]: compressed models answer both from
/// the walk they passed at bind, other sources sweep the model.
///
/// # Panics
/// Panics with a diagnostic on either violation.
pub fn validate_models<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    am: &A,
    lm: &L,
    num_pdfs: usize,
) {
    let max_pdf = am.max_pdf();
    assert!(
        max_pdf <= num_pdfs,
        "AM pdf {max_pdf} beyond the {num_pdfs}-wide score row"
    );
    assert!(
        lm.max_backoff_hops() <= MAX_BACKOFF_HOPS,
        "LM back-off chain exceeds {MAX_BACKOFF_HOPS} hops"
    );
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
        let s = am.start();
        let mut direct = Vec::new();
        am.for_each_arc(s, &mut |v| direct.push(v));
        assert!(!direct.is_empty(), "start state should have arcs");
        let arcs: Vec<Arc> = direct.iter().map(|v| v.arc).collect();
        let footprints: Vec<Fetch> = direct.iter().map(|v| (v.addr, v.bytes)).collect();
        for observe in [false, true] {
            let mut stage = ArcStage::default();
            stage.reset(&am, observe);
            let want: (&[Arc], &[Fetch]) = (&arcs, if observe { &footprints } else { &[] });
            assert_eq!(
                stage.arcs_and_eps(&am, s, observe).0,
                want,
                "observe={observe}: staging pass diverged"
            );
            let staged = stage.staged_visits();
            assert_eq!(
                stage.arcs_and_eps(&am, s, observe).0,
                want,
                "observe={observe}: replay diverged"
            );
            assert_eq!(
                stage.staged_visits(),
                staged,
                "observe={observe}: revisit must replay, not re-stage"
            );
            assert_eq!(stage.holds_footprints(), observe, "observe={observe}");
        }
    }

    #[test]
    fn first_observing_bind_restages_with_footprints_for_good() {
        let (am, _) = models();
        let s = am.start();
        let mut footprints = Vec::new();
        am.for_each_arc(s, &mut |v| footprints.push((v.addr, v.bytes)));
        let mut work = WorkScratch::new();
        work.bind_arc_stage(&am, false);
        let _ = work.arc_stage.arcs_and_eps(&am, s, false);
        assert!(work.arc_stage.staged_visits() > 0);
        assert!(
            !work.arc_stage.holds_footprints(),
            "a blind stage kept footprints"
        );
        // The switch drops the spans staged without footprints...
        work.bind_arc_stage(&am, true);
        assert_eq!(work.arc_stage.staged_visits(), 0, "switch kept blind spans");
        let ((_, got), _) = work.arc_stage.arcs_and_eps(&am, s, true);
        assert_eq!(got, &footprints[..]);
        let staged = work.arc_stage.staged_visits();
        // ...and from then on binds of either kind keep the memo warm,
        // still recording footprints.
        for observe in [false, true, false] {
            work.bind_arc_stage(&am, observe);
            assert_eq!(work.arc_stage.staged_visits(), staged, "observe={observe}");
            let ((_, got), _) = work.arc_stage.arcs_and_eps(&am, s, true);
            assert_eq!(got, &footprints[..], "observe={observe}");
        }
    }

    #[test]
    fn arc_stage_eps_flag_matches_the_arcs_on_both_topologies() {
        let lex = Lexicon::generate(40, 18, 3);
        for topology in [HmmTopology::Kaldi3State, HmmTopology::Ctc] {
            let am = build_am(&lex, topology).fst;
            let compressed = unfold_compress::CompressedAm::compress(&am, 64, 0);
            let sources: [&dyn AmSource; 2] = [&am, &compressed];
            for (source, cap) in sources.into_iter().zip([None, Some(0)]) {
                let mut stage = ArcStage::default();
                if let Some(cap) = cap {
                    stage.set_cap(cap);
                }
                stage.reset(source, false);
                let mut flagged = 0;
                for s in 0..am.num_states() as StateId {
                    let mut eps_arcs = 0;
                    am.for_each_arc(s, &mut |v| eps_arcs += usize::from(v.arc.ilabel == EPSILON));
                    // The flag is seeded before any visit; an ε-free
                    // state is skipped without being staged.
                    let staged = stage.staged_visits();
                    for visit in ["first", "second"] {
                        let got = stage.eps_arcs(source, s, false).is_some();
                        assert_eq!(got, eps_arcs > 0, "{topology:?} state {s} ({visit})");
                    }
                    if eps_arcs == 0 {
                        assert_eq!(stage.staged_visits(), staged, "state {s} staged");
                    }
                    flagged += usize::from(eps_arcs > 0);
                }
                assert!(flagged > 0, "{topology:?}: no state has an ε arc");
                assert!(
                    flagged < am.num_states(),
                    "{topology:?}: every state flagged"
                );
            }
        }
    }

    #[test]
    fn bind_arc_stage_keeps_memo_for_same_am_and_resets_on_switch() {
        let (am, other) = models();
        let mut work = WorkScratch::new();
        work.bind_arc_stage(&am, false);
        let _ = work.arc_stage.arcs_and_eps(&am, am.start(), false);
        let staged = work.arc_stage.staged_visits();
        assert!(staged > 0);
        // Same AM: warm across utterances, like the OLT.
        work.bind_arc_stage(&am, false);
        assert_eq!(work.arc_stage.staged_visits(), staged);
        // Different AM: stale spans describe the old arc layout.
        work.bind_arc_stage(&other, false);
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
        work.bind_arc_stage(&am, false);
        let _ = work.arc_stage.arcs_and_eps(&am, am.start(), false);
        assert!(work.arc_stage.staged_visits() > 0);
        // A model-generation change is the ABA-safe invalidation path:
        // the next bind must restart the arena cold even though the AM
        // sits at the same address.
        work.bind_olt_model(2);
        work.bind_arc_stage(&am, false);
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
