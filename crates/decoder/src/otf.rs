//! The on-the-fly composition decoder — the search UNFOLD accelerates.
//!
//! Tokens are (AM state, LM state) pairs (paper Figure 3c). The AM
//! drives the search; when a cross-word AM arc is traversed, the word id
//! is resolved in the LM: a binary search over the state's sorted arcs,
//! walking back-off arcs on misses. Preemptive pruning (§3.3) abandons a
//! hypothesis *between back-off hops* once its accumulated cost can no
//! longer survive the beam — "it is guaranteed that we only discard the
//! hypotheses that would be pruned away later" because back-off weights
//! only ever add cost at the point of comparison.
//!
//! Two decode-time accelerations ride on top of the search, neither of
//! which changes its output:
//!
//! * a software Offset Lookup Table ([`crate::olt::SoftOlt`], §3.1)
//!   memoizing word-arc resolutions, consulted at every LM lookup step;
//! * a reusable [`DecodeScratch`] holding every frame-loop structure,
//!   so steady-state decoding allocates nothing.

use unfold_am::AcousticScores;
use unfold_wfst::{Label, Semiring, StateId, TropicalWeight, EPSILON};

use crate::config::{DecodeConfig, DecodeKernel, DecodeResult, DecodeStats};
use crate::lattice::{Lattice, WordLattice, COMPACT_ENTRY_BYTES, LATTICE_ROOT};
use crate::olt::SoftOlt;
use crate::scratch::{DecodeScratch, SessionScratch, WorkScratch};
use crate::search::{prune_threshold_store, Token, TokenStore};
use crate::sources::{addr, AmSource, Fetch, LmSource, MAX_BACKOFF_HOPS};
use crate::trace::{DecodeStage, NullSink, TraceSink};

/// Token key: AM state in the high half, LM state in the low half —
/// also how the accelerator indexes its token hash tables ("the hash
/// tables are indexed through a combination of IDs of AM and LM states",
/// §3.2).
#[inline]
pub(crate) fn token_key(am: StateId, lm: StateId) -> u64 {
    (u64::from(am) << 32) | u64::from(lm)
}

#[inline]
pub(crate) fn split(key: u64) -> (StateId, StateId) {
    ((key >> 32) as StateId, key as StateId)
}

/// Beam-search decoder with on-the-fly AM ∘ LM composition.
#[derive(Debug, Clone)]
pub struct OtfDecoder {
    config: DecodeConfig,
}

impl OtfDecoder {
    /// Creates a decoder with the given beam configuration.
    pub fn new(config: DecodeConfig) -> Self {
        OtfDecoder { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DecodeConfig {
        &self.config
    }

    /// Decodes and returns up to `k` distinct word sequences among the
    /// surviving complete hypotheses, best first. The 1-best entry
    /// equals [`OtfDecoder::decode`]'s result. Distinctness is by word
    /// sequence: hypotheses that differ only in their (AM, LM) state
    /// pair are merged, keeping the cheaper cost.
    ///
    /// This is the hypothesis list a two-pass rescorer consumes (the
    /// paper's §6 contrasts one-pass search — what UNFOLD implements —
    /// against lattice + rescore pipelines).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn decode_nbest<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &self,
        am: &A,
        lm: &L,
        scores: &AcousticScores,
        k: usize,
        sink: &mut dyn TraceSink,
    ) -> Vec<(Vec<Label>, f32)> {
        self.decode_nbest_with(am, lm, scores, k, &mut DecodeScratch::new(), sink)
    }

    /// [`OtfDecoder::decode_nbest`] with caller-owned working memory.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn decode_nbest_with<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &self,
        am: &A,
        lm: &L,
        scores: &AcousticScores,
        k: usize,
        scratch: &mut DecodeScratch,
        sink: &mut dyn TraceSink,
    ) -> Vec<(Vec<Label>, f32)> {
        assert!(k > 0, "decode_nbest: k must be positive");
        let (res, lattice) = self.decode_lattice_with(am, lm, scores, scratch, sink);
        if !res.is_complete() {
            return Vec::new();
        }
        // Entry 0 is the exact Viterbi result (bit-identical to
        // `decode`); the remaining entries come out of the pruned word
        // lattice, skipping the duplicate of the 1-best sequence.
        let mut out: Vec<(Vec<Label>, f32)> = Vec::with_capacity(k);
        out.push((res.words.clone(), res.cost));
        if k > 1 {
            for (words, cost) in lattice.nbest(k) {
                if words == res.words {
                    continue;
                }
                // Lattice arc weights are derived from the exact search
                // scores, but clamp anyway so the list stays sorted even
                // under f32 re-association.
                let floor = out.last().map(|e| e.1).unwrap_or(res.cost);
                out.push((words, cost.max(floor)));
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Decodes one utterance and returns both the 1-best result and the
    /// pruned exact word lattice (all hypotheses within
    /// [`DecodeConfig::lattice_beam`] of the best complete path).
    ///
    /// The [`DecodeResult`] is bit-identical to [`OtfDecoder::decode`]:
    /// lattice recording is contents-neutral for the search.
    pub fn decode_lattice<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &self,
        am: &A,
        lm: &L,
        scores: &AcousticScores,
        sink: &mut dyn TraceSink,
    ) -> (DecodeResult, WordLattice) {
        self.decode_lattice_with(am, lm, scores, &mut DecodeScratch::new(), sink)
    }

    /// [`OtfDecoder::decode_lattice`] with caller-owned working memory.
    pub fn decode_lattice_with<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &self,
        am: &A,
        lm: &L,
        scores: &AcousticScores,
        scratch: &mut DecodeScratch,
        sink: &mut dyn TraceSink,
    ) -> (DecodeResult, WordLattice) {
        let mut stats = DecodeStats::default();
        self.run(am, lm, scores, scratch, sink, &mut stats, true);
        finish_lattice(
            am,
            &scratch.session.cur,
            &scratch.session.lattice,
            stats,
            self.config.lattice_beam,
            sink,
        )
    }

    /// Decodes one utterance by composing `am` and `lm` on demand.
    ///
    /// Works with any [`AmSource`]/[`LmSource`] pair: uncompressed
    /// [`unfold_wfst::Wfst`]s or the bit-packed compressed models.
    ///
    /// # Panics
    /// Panics if the LM cannot resolve a word the AM emits (malformed
    /// LM: missing unigram coverage).
    pub fn decode<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &self,
        am: &A,
        lm: &L,
        scores: &AcousticScores,
        sink: &mut dyn TraceSink,
    ) -> DecodeResult {
        self.decode_with(am, lm, scores, &mut DecodeScratch::new(), sink)
    }

    /// [`OtfDecoder::decode`] with caller-owned working memory: reusing
    /// one [`DecodeScratch`] across utterances eliminates steady-state
    /// allocation, and the result is bit-identical to a fresh-scratch
    /// decode.
    pub fn decode_with<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &self,
        am: &A,
        lm: &L,
        scores: &AcousticScores,
        scratch: &mut DecodeScratch,
        sink: &mut dyn TraceSink,
    ) -> DecodeResult {
        let mut stats = DecodeStats::default();
        self.run(am, lm, scores, scratch, sink, &mut stats, false);
        finish(
            am,
            &scratch.session.cur,
            &scratch.session.lattice,
            stats,
            sink,
        )
    }

    /// Shared search loop: seeds the start token, runs the initial
    /// closure, expands every frame. The surviving population is left
    /// in `scratch.cur`. When `record` is set, the expansion tape is
    /// captured for [`WordLattice::build`] — contents-neutral for the
    /// search itself.
    #[allow(clippy::too_many_arguments)]
    fn run<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &self,
        am: &A,
        lm: &L,
        scores: &AcousticScores,
        scratch: &mut DecodeScratch,
        sink: &mut dyn TraceSink,
        stats: &mut DecodeStats,
        record: bool,
    ) {
        scratch.begin(&self.config);
        scratch.session.lattice.set_recording(record);
        scratch.work.ensure_validated(am, lm, scores.num_pdfs());
        seed_closure(
            &self.config,
            am,
            lm,
            &mut scratch.session,
            &mut scratch.work,
            sink,
            stats,
        );
        for t in 0..scores.num_frames() {
            expand_frame(
                &self.config,
                am,
                lm,
                &mut scratch.session,
                &mut scratch.work,
                scores.frame(t),
                t,
                sink,
                stats,
            );
        }
    }
}

/// Seeds the start token into `session.cur` and runs the initial
/// non-emitting closure under the configured kernel. Shared by
/// [`OtfDecoder`] and [`crate::streaming::StreamSession`].
pub(crate) fn seed_closure<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    session: &mut SessionScratch,
    work: &mut WorkScratch,
    sink: &mut dyn TraceSink,
    stats: &mut DecodeStats,
) {
    session.cur.insert(
        token_key(am.start(), lm.start()),
        Token {
            cost: 0.0,
            lat: LATTICE_ROOT,
        },
    );
    session
        .lattice
        .record_start(token_key(am.start(), lm.start()));
    match config.kernel {
        DecodeKernel::Legacy => epsilon_closure(
            config,
            am,
            lm,
            &mut session.cur,
            &mut work.worklist,
            &mut work.eps_local,
            &mut work.probes,
            &mut work.olt,
            &mut session.bias_cache,
            &mut session.lattice,
            0,
            f32::INFINITY,
            sink,
            stats,
        ),
        DecodeKernel::Soa if sink.is_null() => {
            seed_closure_soa(config, am, lm, session, work, &mut NullSink, stats);
        }
        DecodeKernel::Soa => seed_closure_soa(config, am, lm, session, work, sink, stats),
    }
}

/// The SoA initial closure, compiled once per sink type.
fn seed_closure_soa<A: AmSource + ?Sized, L: LmSource + ?Sized, S: TraceSink + ?Sized>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    session: &mut SessionScratch,
    work: &mut WorkScratch,
    sink: &mut S,
    stats: &mut DecodeStats,
) {
    // The streaming path seeds before the first frame's
    // `ensure_validated`, so the stage binds here too.
    work.bind_arc_stage(am);
    crate::kernel::epsilon_closure_soa(
        config,
        am,
        lm,
        &mut session.cur,
        &mut work.worklist_idx,
        &mut work.eps_local,
        &mut work.probes,
        &mut work.olt,
        &mut session.bias_cache,
        &mut work.arc_stage,
        &mut session.lattice,
        0,
        f32::INFINITY,
        sink,
        stats,
    )
}

/// Processes one frame under the configured kernel: prune, expand
/// emitting arcs against the frame's cost row (`costs[pdf - 1]`), then
/// run the non-emitting closure. The population entering the frame is
/// `session.cur`; the surviving population is swapped back into
/// `session.cur` on return. Shared by [`OtfDecoder::decode`] and
/// [`crate::streaming::StreamSession`] — the latter lends a (possibly
/// different) worker's `work` buffers on every call, which is safe
/// because nothing in [`WorkScratch`] carries search state across a
/// frame boundary.
///
/// Both kernels produce the identical ordered [`TraceSink`] event
/// stream and [`DecodeStats`] — pinned by the `soa_identity` proptests
/// and verify-matrix check. A sink that reports
/// [`TraceSink::is_null`] runs the SoA kernel's [`NullSink`] copy, in
/// which every event call inlines away.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_frame<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    session: &mut SessionScratch,
    work: &mut WorkScratch,
    costs: &[f32],
    t: usize,
    sink: &mut dyn TraceSink,
    stats: &mut DecodeStats,
) {
    match config.kernel {
        DecodeKernel::Legacy => {
            expand_frame_legacy(config, am, lm, session, work, costs, t, sink, stats);
        }
        DecodeKernel::Soa if sink.is_null() => {
            crate::kernel::expand_frame_soa(
                config,
                am,
                lm,
                session,
                work,
                costs,
                t,
                &mut NullSink,
                stats,
            );
        }
        DecodeKernel::Soa => {
            crate::kernel::expand_frame_soa(config, am, lm, session, work, costs, t, sink, stats);
        }
    }
}

/// The scalar reference frame loop (see [`DecodeKernel::Legacy`]):
/// per-token beam test inside the expansion walk, `get`-then-`insert`
/// relaxation. Kept byte-for-byte as the differential baseline the SoA
/// kernel is pinned against.
#[allow(clippy::too_many_arguments)]
fn expand_frame_legacy<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    session: &mut SessionScratch,
    work: &mut WorkScratch,
    costs: &[f32],
    t: usize,
    sink: &mut dyn TraceSink,
    stats: &mut DecodeStats,
) {
    work.ensure_validated(am, lm, costs.len());
    session.lattice.advance_pop();
    sink.frame_start(t, session.cur.len());
    stats.frames += 1;
    stats.max_active = stats.max_active.max(session.cur.len());
    stats.total_active += session.cur.len() as u64;

    sink.stage_enter(DecodeStage::Pruning);
    let thr = prune_threshold_store(
        &session.cur,
        config.beam,
        config.max_active,
        &mut work.prune_costs,
    );
    sink.stage_switch(DecodeStage::Pruning, DecodeStage::ArcExpansion);
    session.next.clear();
    let mut next_best = f32::INFINITY;

    {
        let cur = &session.cur;
        let next = &mut session.next;
        let olt = &mut work.olt;
        let bias = &mut session.bias_cache;
        let probes = &mut work.probes;
        let lattice = &mut session.lattice;
        for (k, tok) in cur.iter() {
            if tok.cost > thr {
                stats.tokens_pruned += 1;
                continue;
            }
            let (am_s, lm_s) = split(k);
            sink.state_fetch(am.state_addr(am_s));
            am.for_each_arc(am_s, &mut |v| {
                sink.am_arc_fetch(v.addr, v.bytes);
                let arc = v.arc;
                if arc.ilabel == EPSILON {
                    return; // non-emitting: closure phase
                }
                sink.acoustic_fetch(t, arc.ilabel);
                // Validated once per model in `ensure_validated`.
                debug_assert!(
                    (arc.ilabel as usize) <= costs.len(),
                    "pdf {} beyond the {}-wide score row",
                    arc.ilabel,
                    costs.len()
                );
                // Tropical ⊗-chain — compiles to the same left-to-right
                // f32 additions as `tok.cost + arc.weight + costs[..]`,
                // so scores stay bit-identical to the pre-semiring code.
                let base = TropicalWeight::from_cost(tok.cost)
                    .times(TropicalWeight::from_cost(arc.weight))
                    .times(TropicalWeight::from_cost(costs[arc.ilabel as usize - 1]))
                    .value();
                stats.tokens_created += 1;
                if base > next_best + config.beam {
                    stats.tokens_pruned += 1;
                    return;
                }
                let (lm_next, cost, word) = if arc.olabel != EPSILON {
                    let walk_thr = if config.preemptive_pruning {
                        next_best + config.beam
                    } else {
                        f32::INFINITY
                    };
                    match lm_walk(
                        lm, lm_s, arc.olabel, base, walk_thr, olt, bias, probes, sink, stats,
                    ) {
                        Some((dest, c)) => (dest, c, arc.olabel),
                        None => return,
                    }
                } else {
                    (lm_s, base, EPSILON)
                };
                next_best = TropicalWeight::from_cost(cost)
                    .plus(TropicalWeight::from_cost(next_best))
                    .value();
                lattice.record_emit(k, token_key(arc.nextstate, lm_next), word, cost);
                relax(
                    next,
                    token_key(arc.nextstate, lm_next),
                    cost,
                    tok.lat,
                    word,
                    t as u32,
                    lattice,
                    sink,
                );
            });
        }
    }

    epsilon_closure(
        config,
        am,
        lm,
        &mut session.next,
        &mut work.worklist,
        &mut work.eps_local,
        &mut work.probes,
        &mut work.olt,
        &mut session.bias_cache,
        &mut session.lattice,
        t as u32,
        next_best + config.beam,
        sink,
        stats,
    );
    sink.stage_exit(DecodeStage::ArcExpansion);

    let mut best = TropicalWeight::zero();
    let mut worst = f32::INFINITY;
    for tok in session.next.values() {
        best = TropicalWeight::from_cost(tok.cost).plus(best);
        worst = if worst.is_finite() {
            worst.max(tok.cost)
        } else {
            tok.cost
        };
    }
    let best = best.value();
    sink.frame_end(t, session.next.len(), best, worst);
    std::mem::swap(&mut session.cur, &mut session.next);
}

/// Relaxes non-emitting AM arcs (including cross-word transitions,
/// which trigger LM walks) to a fixed point. `worklist`, `eps_local`,
/// and `probes` are caller-owned buffers (cleared here) so the closure
/// allocates nothing in steady state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn epsilon_closure<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    tokens: &mut TokenStore,
    worklist: &mut Vec<u64>,
    eps_local: &mut Vec<(StateId, f32, Label)>,
    probes: &mut Vec<Fetch>,
    olt: &mut SoftOlt,
    bias: &mut SoftOlt,
    lattice: &mut Lattice,
    frame: u32,
    thr: f32,
    sink: &mut dyn TraceSink,
    stats: &mut DecodeStats,
) {
    worklist.clear();
    worklist.extend(tokens.keys());
    let mut guard = 0u64;
    while let Some(k) = worklist.pop() {
        guard += 1;
        assert!(
            guard < 100_000_000,
            "epsilon closure diverged: negative cycle?"
        );
        let tok = match tokens.get(k) {
            Some(t) => t,
            None => continue,
        };
        if tok.cost > thr {
            continue;
        }
        let (am_s, lm_s) = split(k);
        eps_local.clear();
        am.for_each_arc(am_s, &mut |v| {
            if v.arc.ilabel != EPSILON {
                return;
            }
            sink.am_arc_fetch(v.addr, v.bytes);
            stats.epsilon_expansions += 1;
            eps_local.push((
                v.arc.nextstate,
                TropicalWeight::from_cost(tok.cost)
                    .times(TropicalWeight::from_cost(v.arc.weight))
                    .value(),
                v.arc.olabel,
            ));
        });
        for &(am_next, base, word) in eps_local.iter() {
            stats.tokens_created += 1;
            let (lm_next, cost, out_word) = if word != EPSILON {
                let walk_thr = if config.preemptive_pruning {
                    thr
                } else {
                    f32::INFINITY
                };
                match lm_walk(
                    lm, lm_s, word, base, walk_thr, olt, bias, probes, sink, stats,
                ) {
                    Some((dest, c)) => (dest, c, word),
                    None => continue,
                }
            } else {
                (lm_s, base, EPSILON)
            };
            lattice.record_eps(k, token_key(am_next, lm_next), out_word, cost);
            if relax(
                tokens,
                token_key(am_next, lm_next),
                cost,
                tok.lat,
                out_word,
                frame,
                lattice,
                sink,
            ) {
                worklist.push(token_key(am_next, lm_next));
            }
        }
    }
}

/// Resolves `word` from `lm_state`, carrying the hypothesis cost `base`
/// through the back-off chain. Returns `None` if preemptive pruning
/// abandoned the hypothesis (cost crossed `thr` mid-walk).
///
/// At every step the software OLT is consulted first (when enabled): a
/// hit returns the memoized word arc and skips the binary search — the
/// cached `(dest, weight)` is exactly what the search would have found,
/// so the returned cost is bit-identical either way. A resolution that
/// came from the search is installed, mirroring the hardware table's
/// probe/install protocol (only *resolving* states install; back-off
/// intermediates never do).
///
/// When the LM is a composing adapter (`lm.has_memo_ctx()`), the walk
/// runs the paper's two-layer scheme: `lm_state` is split once into
/// `(base state, context)` and the chain walks *base* states, so the
/// worker-shared OLT keeps memoizing pure base-LM resolutions, valid
/// across every session on that LM. The per-session `bias` table is
/// the dynamic layer: it caches the *joined* `(composite dest, biased
/// weight)` under the composite key, and is probed before the shared
/// layer at each hop. Cached join weights are hop-independent (the
/// accumulated back-off cost stays in `cost`), so a hit at any hop
/// returns bit-identically to finishing the walk. For plain LMs both
/// hooks are identities, `bias` is never touched, and this compiles to
/// exactly the un-composed walk.
///
/// # Panics
/// Panics if the LM has no back-off arc on a state that misses `word`
/// (a malformed model).
#[allow(clippy::too_many_arguments)]
pub(crate) fn lm_walk<L: LmSource + ?Sized, S: TraceSink + ?Sized>(
    lm: &L,
    lm_state: StateId,
    word: Label,
    base: f32,
    thr: f32,
    olt: &mut SoftOlt,
    bias: &mut SoftOlt,
    probes: &mut Vec<Fetch>,
    sink: &mut S,
    stats: &mut DecodeStats,
) -> Option<(StateId, f32)> {
    let (mut state, ctx) = lm.memo_split(lm_state);
    let session_memo = lm.has_memo_ctx() && bias.is_enabled();
    let mut cost = base;
    let mut hops = 0u32;
    stats.lm_lookups += 1;
    sink.stage_enter(DecodeStage::LmLookup);
    loop {
        sink.lm_lookup(state, word);
        sink.state_fetch(lm.state_addr(state));
        if session_memo {
            stats.bias_probes += 1;
            if let Some((dest, weight)) = bias.probe(lm.memo_pack(ctx, state), word) {
                stats.bias_hits += 1;
                sink.lm_resolved(state, word, hops);
                sink.stage_exit(DecodeStage::LmLookup);
                return Some((dest, cost + weight));
            }
        }
        if olt.is_enabled() {
            stats.olt_probes += 1;
            if let Some((dest, weight)) = olt.probe(state, word) {
                stats.olt_hits += 1;
                sink.olt_probe(state, word, true);
                sink.lm_resolved(state, word, hops);
                let (dest, weight) = lm.memo_join(ctx, word, dest, weight);
                if session_memo {
                    let evicted = bias.insert(lm.memo_pack(ctx, state), word, dest, weight);
                    stats.bias_installs += 1;
                    if evicted {
                        stats.bias_evictions += 1;
                    }
                }
                sink.stage_exit(DecodeStage::LmLookup);
                return Some((dest, cost + weight));
            }
            sink.olt_probe(state, word, false);
        }
        probes.clear();
        let found = lm.lookup_word_into(state, word, probes);
        stats.lm_fetches += probes.len() as u64;
        for &(a, b) in probes.iter() {
            sink.lm_arc_fetch(a, b);
        }
        if let Some(arc) = found {
            sink.lm_resolved(state, word, hops);
            if olt.is_enabled() {
                let evicted = olt.insert(state, word, arc.nextstate, arc.weight);
                stats.olt_installs += 1;
                if evicted {
                    stats.olt_evictions += 1;
                }
                sink.olt_install(evicted);
            }
            let (dest, weight) = lm.memo_join(ctx, word, arc.nextstate, arc.weight);
            if session_memo {
                let evicted = bias.insert(lm.memo_pack(ctx, state), word, dest, weight);
                stats.bias_installs += 1;
                if evicted {
                    stats.bias_evictions += 1;
                }
            }
            sink.stage_exit(DecodeStage::LmLookup);
            return Some((dest, cost + weight));
        }
        let (back, fetch) = lm
            .backoff(state)
            .unwrap_or_else(|| panic!("LM state {state} misses word {word} and has no back-off"));
        sink.lm_arc_fetch(fetch.0, fetch.1);
        stats.lm_fetches += 1;
        stats.backoff_hops += 1;
        cost += back.weight;
        hops += 1;
        // Chain termination validated once per model in
        // `ensure_validated`.
        debug_assert!(hops <= MAX_BACKOFF_HOPS, "back-off chain too long");
        // §3.3: "the Arc Issuer updates and checks the likelihood of a
        // hypothesis after traversing a back-off arc".
        if cost > thr {
            stats.preemptive_prunes += 1;
            sink.preemptive_prune();
            sink.stage_exit(DecodeStage::LmLookup);
            return None;
        }
        state = back.nextstate;
    }
}

/// Inserts/improves a token; returns whether the store changed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn relax(
    map: &mut TokenStore,
    k: u64,
    cost: f32,
    parent_lat: u32,
    word: Label,
    frame: u32,
    lattice: &mut Lattice,
    sink: &mut dyn TraceSink,
) -> bool {
    let improved = match map.get(k) {
        Some(existing) => cost < existing.cost,
        None => true,
    };
    if !improved {
        return false;
    }
    let lat = if word != EPSILON {
        let idx = lattice.push(parent_lat, word, frame);
        sink.token_store(
            addr::TOKEN_BASE + u64::from(idx) * u64::from(COMPACT_ENTRY_BYTES),
            COMPACT_ENTRY_BYTES,
        );
        idx
    } else {
        parent_lat
    };
    sink.hash_insert(k);
    map.insert(k, Token { cost, lat });
    true
}

/// Selects the best token whose AM state is final and backtraces it.
pub(crate) fn finish<A: AmSource + ?Sized>(
    am: &A,
    tokens: &TokenStore,
    lattice: &Lattice,
    stats: DecodeStats,
    sink: &mut dyn TraceSink,
) -> DecodeResult {
    sink.stage_enter(DecodeStage::Lattice);
    let mut best_cost = f32::INFINITY;
    let mut best_lat = LATTICE_ROOT;
    for (k, tok) in tokens.iter() {
        let (am_s, _) = split(k);
        if let Some(fw) = am.final_weight(am_s) {
            let total = tok.cost + fw;
            if total < best_cost {
                best_cost = total;
                best_lat = tok.lat;
            }
        }
    }
    let (words, word_frames) = if best_cost.is_finite() {
        let spanned = lattice.backtrace_spanned(best_lat);
        (
            spanned.iter().map(|&(w, _)| w).collect(),
            spanned.iter().map(|&(_, f)| f).collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    sink.stage_exit(DecodeStage::Lattice);
    DecodeResult {
        words,
        word_frames,
        cost: best_cost,
        stats,
    }
}

/// [`finish`], then the exact word lattice off the recorded expansion
/// tape (empty for an incomplete decode), with the build attributed to
/// its own [`DecodeStage::Lattice`] span. Shared by
/// [`OtfDecoder::decode_lattice_with`] and
/// [`crate::streaming::StreamSession::finalize_lattice`].
pub(crate) fn finish_lattice<A: AmSource + ?Sized>(
    am: &A,
    tokens: &TokenStore,
    lattice: &Lattice,
    stats: DecodeStats,
    lattice_beam: f32,
    sink: &mut dyn TraceSink,
) -> (DecodeResult, WordLattice) {
    let res = finish(am, tokens, lattice, stats, sink);
    sink.stage_enter(DecodeStage::Lattice);
    let word_lattice = if res.is_complete() {
        WordLattice::build(am, lattice, tokens, lattice_beam)
    } else {
        WordLattice::empty()
    };
    sink.stage_exit(DecodeStage::Lattice);
    (res, word_lattice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountingSink, NullSink};
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_compress::{CompressedAm, CompressedLm};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::Wfst;

    fn setup() -> (Lexicon, Wfst, Wfst) {
        let lex = Lexicon::generate(60, 25, 4);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 60,
            num_sentences: 400,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(5), 60, DiscountConfig::default());
        let lm = lm_to_wfst(&model);
        (lex, am.fst, lm)
    }

    #[test]
    fn decodes_clean_utterance_exactly() {
        let (lex, am, lm) = setup();
        let truth = vec![7u32, 3, 15, 2];
        let utt = synthesize_utterance(
            &truth,
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            11,
        );
        let dec = OtfDecoder::new(DecodeConfig::default());
        let res = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
        assert!(res.is_complete());
        assert_eq!(res.words, truth);
    }

    #[test]
    fn lm_traffic_is_reported() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[1, 2, 3],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            3,
        );
        let dec = OtfDecoder::new(DecodeConfig::default());
        let mut sink = CountingSink::default();
        let res = dec.decode(&am, &lm, &utt.scores, &mut sink);
        assert!(
            res.stats.lm_lookups > 0,
            "cross-word arcs must trigger LM lookups"
        );
        assert!(res.stats.lm_fetches >= res.stats.lm_lookups);
        assert!(sink.lm_arc_fetches > 0);
        assert!(sink.lm_lookups >= res.stats.lm_lookups);
    }

    #[test]
    fn compressed_models_decode_identically_modulo_quantization() {
        let (lex, am, lm) = setup();
        let cam = CompressedAm::compress(&am, 64, 0);
        let clm = CompressedLm::compress(&lm, 64, 0);
        let truth = vec![4u32, 8, 20];
        let utt = synthesize_utterance(
            &truth,
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            17,
        );
        let dec = OtfDecoder::new(DecodeConfig::default());
        let plain = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
        let comp = dec.decode(&cam, &clm, &utt.scores, &mut NullSink);
        assert_eq!(plain.words, truth);
        assert_eq!(
            comp.words, truth,
            "quantization must not change a clean decode"
        );
        assert!((plain.cost - comp.cost).abs() < 2.0);
    }

    #[test]
    fn preemptive_pruning_only_discards_doomed_hypotheses() {
        // With and without preemptive pruning the decoded words and the
        // final cost must match — the pruned hypotheses were going to
        // lose anyway (§3.3's guarantee).
        let (lex, am, lm) = setup();
        // A long, rare-word utterance under a tight beam: back-off
        // walks start near the threshold, so the §3.3 check fires.
        let words = [55u32, 58, 33, 59, 41, 60, 47, 52];
        let noise = NoiseModel {
            noise_sigma: 1.3,
            ..NoiseModel::default()
        };
        let utt = synthesize_utterance(&words, &lex, HmmTopology::Kaldi3State, &noise, 23);
        let cfg = DecodeConfig::builder().beam(8.0).build().unwrap();
        let on = OtfDecoder::new(cfg.to_builder().preemptive_pruning(true).build().unwrap())
            .decode(&am, &lm, &utt.scores, &mut NullSink);
        let off = OtfDecoder::new(cfg.to_builder().preemptive_pruning(false).build().unwrap())
            .decode(&am, &lm, &utt.scores, &mut NullSink);
        assert_eq!(on.words, off.words);
        assert!((on.cost - off.cost).abs() < 1e-4);
        assert!(on.stats.preemptive_prunes > 0, "pruning never fired");
        assert_eq!(off.stats.preemptive_prunes, 0);
        assert!(on.stats.lm_fetches <= off.stats.lm_fetches);
    }

    #[test]
    fn deterministic_across_runs() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[2, 4, 6],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            13,
        );
        let dec = OtfDecoder::new(DecodeConfig::default());
        let a = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
        let b = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
        assert_eq!(a.words, b.words);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn backoff_hops_occur_on_real_workloads() {
        let (lex, am, lm) = setup();
        // Rare-word sequences are unlikely to have kept trigrams.
        let utt = synthesize_utterance(
            &[55, 58, 59, 60],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            31,
        );
        let dec = OtfDecoder::new(DecodeConfig::default());
        let res = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
        assert!(res.stats.backoff_hops > 0, "no back-off exercised");
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (lex, am, lm) = setup();
        let utts: Vec<_> = [(vec![7u32, 3, 15, 2], 11u64), (vec![55, 58, 59, 60], 31)]
            .into_iter()
            .map(|(w, seed)| {
                synthesize_utterance(
                    &w,
                    &lex,
                    HmmTopology::Kaldi3State,
                    &NoiseModel::default(),
                    seed,
                )
            })
            .collect();
        let dec = OtfDecoder::new(DecodeConfig::default());
        let fresh: Vec<_> = utts
            .iter()
            .map(|u| dec.decode(&am, &lm, &u.scores, &mut NullSink))
            .collect();
        let mut scratch = DecodeScratch::new();
        for (u, want) in utts.iter().zip(&fresh) {
            let got = dec.decode_with(&am, &lm, &u.scores, &mut scratch, &mut NullSink);
            assert_eq!(got.words, want.words);
            assert_eq!(got.cost.to_bits(), want.cost.to_bits());
            assert_eq!(got.stats, want.stats, "warm scratch must not perturb stats");
        }
    }

    #[test]
    fn olt_on_matches_olt_off_bit_for_bit() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[55, 58, 33, 59, 41, 60],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            29,
        );
        let off =
            OtfDecoder::new(DecodeConfig::default()).decode(&am, &lm, &utt.scores, &mut NullSink);
        assert_eq!(off.stats.olt_probes, 0, "disabled table must not probe");
        for entries in [64usize, 1024] {
            let on = OtfDecoder::new(
                DecodeConfig::builder()
                    .olt_entries(entries)
                    .build()
                    .unwrap(),
            )
            .decode(&am, &lm, &utt.scores, &mut NullSink);
            assert_eq!(on.words, off.words);
            assert_eq!(on.cost.to_bits(), off.cost.to_bits());
            // Search behavior is untouched...
            assert_eq!(on.stats.frames, off.stats.frames);
            assert_eq!(on.stats.tokens_created, off.stats.tokens_created);
            assert_eq!(on.stats.lm_lookups, off.stats.lm_lookups);
            assert_eq!(on.stats.backoff_hops, off.stats.backoff_hops);
            // ...only the fetch statistics change.
            assert!(on.stats.olt_probes > 0);
            assert!(on.stats.olt_hits > 0, "a real workload must repeat lookups");
            assert!(on.stats.olt_installs > 0);
            assert!(
                on.stats.lm_fetches < off.stats.lm_fetches,
                "hits must skip binary-search probes"
            );
        }
    }

    #[test]
    fn olt_events_reach_the_sink() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[2, 4, 6, 8],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            7,
        );
        let dec = OtfDecoder::new(DecodeConfig::builder().olt_entries(256).build().unwrap());
        let mut sink = CountingSink::default();
        let res = dec.decode(&am, &lm, &utt.scores, &mut sink);
        assert_eq!(sink.olt_probes, res.stats.olt_probes);
        assert_eq!(sink.olt_hits, res.stats.olt_hits);
        assert_eq!(sink.olt_installs, res.stats.olt_installs);
        assert_eq!(sink.olt_evictions, res.stats.olt_evictions);
        // Every lookup step ends exactly one way: a table hit, a
        // resolution (which installs), or a back-off hop (no install).
        assert_eq!(
            res.stats.olt_probes,
            res.stats.olt_hits + res.stats.olt_installs + res.stats.backoff_hops
        );
        assert!(res.stats.olt_hit_ratio() > 0.0);
    }
}

#[cfg(test)]
mod nbest_tests {
    use super::*;
    use crate::trace::NullSink;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};

    fn setup() -> (Lexicon, unfold_wfst::Wfst, unfold_wfst::Wfst) {
        let lex = Lexicon::generate(40, 18, 8);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 40,
            num_sentences: 250,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(2), 40, DiscountConfig::default());
        (lex, am.fst, lm_to_wfst(&model))
    }

    #[test]
    fn one_best_matches_decode() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[3, 8],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            4,
        );
        let dec = OtfDecoder::new(DecodeConfig::default());
        let best = dec.decode(&am, &lm, &utt.scores, &mut NullSink);
        let nbest = dec.decode_nbest(&am, &lm, &utt.scores, 5, &mut NullSink);
        assert!(!nbest.is_empty());
        assert_eq!(nbest[0].0, best.words);
        assert!((nbest[0].1 - best.cost).abs() < 1e-5);
    }

    #[test]
    fn nbest_is_sorted_and_distinct() {
        let (lex, am, lm) = setup();
        let noise = NoiseModel {
            noise_sigma: 1.2,
            ..NoiseModel::default()
        };
        let utt = synthesize_utterance(&[5, 9, 12], &lex, HmmTopology::Kaldi3State, &noise, 6);
        let dec = OtfDecoder::new(DecodeConfig::default());
        let nbest = dec.decode_nbest(&am, &lm, &utt.scores, 8, &mut NullSink);
        for w in nbest.windows(2) {
            assert!(w[0].1 <= w[1].1, "costs must be sorted");
            assert_ne!(w[0].0, w[1].0, "sequences must be distinct");
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[1],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            1,
        );
        let _ = OtfDecoder::new(DecodeConfig::default()).decode_nbest(
            &am,
            &lm,
            &utt.scores,
            0,
            &mut NullSink,
        );
    }
}

#[cfg(test)]
mod pruning_tests {
    use super::*;
    use crate::trace::NullSink;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_lm::{lm_to_wfst, CorpusSpec, NGramModel};

    #[test]
    fn max_active_caps_the_population() {
        let lex = Lexicon::generate(60, 20, 14);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 60,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(15), 60, Default::default());
        let lm = lm_to_wfst(&model);
        let noise = NoiseModel {
            noise_sigma: 1.4,
            wrong_cost: 2.0,
            ..NoiseModel::default()
        };
        let utt = synthesize_utterance(&[3, 9], &lex, HmmTopology::Kaldi3State, &noise, 16);
        let loose = OtfDecoder::new(
            DecodeConfig::builder()
                .beam(20.0)
                .max_active(usize::MAX)
                .build()
                .unwrap(),
        )
        .decode(&am.fst, &lm, &utt.scores, &mut NullSink);
        let capped = OtfDecoder::new(
            DecodeConfig::builder()
                .beam(20.0)
                .max_active(50)
                .build()
                .unwrap(),
        )
        .decode(&am.fst, &lm, &utt.scores, &mut NullSink);
        assert!(
            loose.stats.max_active > 50,
            "workload too small to test the cap"
        );
        // Histogram pruning caps survivors *entering* expansion; the
        // population measured at the next frame start can exceed the cap
        // only via fresh expansion, so mean active must drop sharply.
        assert!(capped.stats.mean_active() < loose.stats.mean_active() / 2.0);
        assert!(
            capped.stats.tokens_created < loose.stats.tokens_created,
            "capping survivors must shrink the expansion work"
        );
    }
}
