//! The decode kernel: the struct-of-arrays frame loop every decode
//! runs.
//!
//! Same search as the scalar loop in [`crate::reference`], different
//! loop shape. The scalar loop walks the token map entry-by-entry,
//! re-hashing on every relaxation; this kernel exploits the
//! struct-of-arrays [`TokenStore`] layout so the hot phases run over
//! contiguous lanes:
//!
//! * **Threshold** — the beam compare runs over the `costs` lane as a
//!   branch-free fold producing a packed `u64` survivor bitmask
//!   (bit = `!(cost > thr)`, so NaN handling is bit-identical to the
//!   scalar `cost > thr` prune), which the stable-Rust autovectorizer
//!   turns into SIMD compares.
//! * **BatchProbe** — survivor indices are compacted out of the mask
//!   with `trailing_zeros`/`b &= b - 1`, then a tight prefetch loop
//!   issues [`AmSource::prefetch_state`]/[`LmSource::prefetch_state`]
//!   hints over the whole probe buffer before any expansion work. The
//!   hints are contents-neutral: true reordered OLT probing would
//!   reorder install/evict decisions and break trace identity, so the
//!   batched pass warms caches while [`crate::otf::lm_walk`] — shared
//!   verbatim with the scalar loop — performs every probe/install in
//!   the original order (see DESIGN.md §13).
//! * **Expand** — each survivor's arcs replay from the decoded-arc
//!   staging arena ([`crate::scratch::ArcStage`]): the first visit to
//!   an AM state unpacks its compressed arc stream once into a flat
//!   slice, and every later visit — HMM self-loops revisit the same
//!   states frame after frame — is a contiguous walk of 16-byte arcs
//!   that skips the bit-stream decode entirely. The walk
//!   software-pipelines: while survivor `j` expands, survivor `j + 1`'s
//!   AM/LM state records are prefetched. Relaxations use a fused probe-then-commit
//!   ([`TokenStore::probe`] + [`TokenStore::insert_probed`]): one hash
//!   walk where the scalar loop pays two.
//! * **Closure** — the epsilon worklist holds dense entry indices
//!   (`u32`) instead of keys, so a pop re-reads a token with a lane
//!   load instead of a hash walk. Expansion seeds it: a new entry goes
//!   on the list only if its state has an ε-input arc (the AM record's
//!   ε bit, which the staging arena holds for every state), so tokens
//!   in ε-free states — every state but a word end — are never popped
//!   at all. A popped ε-free state is still skipped right after the
//!   beam test; for the rest, the epsilon filter scans the staged
//!   slice rather than re-decoding the state's arcs.
//!
//! Every [`TraceSink`] event and every [`DecodeStats`] counter is
//! emitted at exactly the same point as in the scalar loop — the two
//! are differential-tested for bit identity (transcripts, cost bits,
//! stats, ordered event streams) by the tests below and the verify
//! matrix's `soa-identity` row. The only sink calls unique to this
//! module are the [`KernelPhase`] timers, which are observability-only
//! and explicitly excluded from trace identity (the recorder ignores
//! them).
//!
//! Every function here is generic over its sink `S`. The callers in
//! [`crate::otf`] instantiate it twice: with [`crate::NullSink`] when
//! the caller's sink reports [`TraceSink::is_null`], so every event
//! call is an empty inlined body, and with `dyn TraceSink` otherwise.
//! Only the `dyn` copy *observes*: it reads each arc's `(addr, bytes)`
//! fetch footprint for [`TraceSink::am_arc_fetch`] from a lane beside
//! the staged arcs, which the stage fills once an observing decode has
//! bound it ([`WorkScratch::bind_arc_stage`]). The `NullSink` copy
//! reads the arcs alone, so a worker that never observes never holds
//! a footprint.

use std::time::Instant;

use unfold_wfst::{Label, Semiring, StateId, TropicalWeight, EPSILON};

use crate::config::{DecodeConfig, DecodeStats};
use crate::lattice::{Lattice, COMPACT_ENTRY_BYTES};
use crate::olt::SoftOlt;
use crate::otf::{lm_walk, split, token_key};
use crate::scratch::{ArcStage, FrameSource, SessionScratch, WorkScratch};
use crate::search::{prune_threshold_store, Token, TokenLanes, TokenStore};
use crate::sources::{addr, AmSource, Fetch, LmSource};
use crate::trace::{DecodeStage, KernelPhase, TraceSink};

/// Reports a finished kernel phase to sinks that asked for timing.
#[inline]
fn tick<S: TraceSink + ?Sized>(sink: &mut S, t0: Option<Instant>, phase: KernelPhase) {
    if let Some(t0) = t0 {
        sink.kernel_phase(phase, t0.elapsed().as_nanos() as u64);
    }
}

/// One frame of the search ([`crate::otf::expand_frame`]): the scalar
/// loop's event stream and stats, lane-oriented inner loops. The
/// population entering the frame is read from `from`; the one built
/// is left in `work.next`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_frame_soa<
    A: AmSource + ?Sized,
    L: LmSource + ?Sized,
    S: TraceSink + ?Sized,
>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    session: &mut SessionScratch,
    work: &mut WorkScratch,
    from: FrameSource,
    costs: &[f32],
    t: usize,
    sink: &mut S,
    stats: &mut DecodeStats,
) {
    // Whether the sink sees arc fetches: a constant in the `NullSink`
    // copy, so its replay reads only the arc lane.
    let observe = !sink.is_null();
    work.ensure_validated(am, lm, costs.len());
    work.bind_arc_stage(am, observe);
    let cur: &TokenLanes = match from {
        FrameSource::Worker => &work.cur,
        FrameSource::Parked => &session.live,
    };
    session.lattice.advance_pop(cur.keys_slice());
    sink.frame_start(t, cur.len());
    stats.frames += 1;
    stats.max_active = stats.max_active.max(cur.len());
    stats.total_active += cur.len() as u64;
    let timing = sink.wants_kernel_timing();

    sink.stage_enter(DecodeStage::Pruning);
    let t0 = timing.then(Instant::now);
    let thr = prune_threshold_store(
        cur.costs(),
        config.beam,
        config.max_active,
        &mut work.prune_costs,
    );
    // Beam compare over the contiguous cost lane into packed flags.
    // `!(c > thr)` (not `c <= thr`) so a NaN cost survives exactly as
    // it does under the scalar `cost > thr` prune test.
    let n = cur.len();
    {
        let cs = cur.costs();
        let mask = &mut work.survivor_mask;
        mask.clear();
        mask.resize(n.div_ceil(64), 0);
        for (w, chunk) in mask.iter_mut().zip(cs.chunks(64)) {
            let mut bits = 0u64;
            for (i, &c) in chunk.iter().enumerate() {
                // Negated on purpose: `!(c > thr)` (not `c <= thr`) so
                // NaN costs survive exactly as under the scalar prune.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let survives = !(c > thr);
                bits |= u64::from(survives) << i;
            }
            *w = bits;
        }
    }
    // Compact set bits into the probe buffer of surviving entry
    // indices: `trailing_zeros` finds the next survivor, `b &= b - 1`
    // clears it.
    work.survivors.clear();
    for (wi, &w) in work.survivor_mask.iter().enumerate() {
        let mut b = w;
        while b != 0 {
            work.survivors.push((wi * 64) as u32 + b.trailing_zeros());
            b &= b - 1;
        }
    }
    stats.tokens_pruned += (n - work.survivors.len()) as u64;
    // The next population's reset is timed with the threshold pass.
    work.next.clear();
    tick(sink, t0, KernelPhase::Threshold);
    sink.stage_switch(DecodeStage::Pruning, DecodeStage::ArcExpansion);
    let mut next_best = f32::INFINITY;

    // Batched probe pass: issue prefetch hints for every survivor's
    // AM and LM state records before expansion touches any of them.
    let t0 = timing.then(Instant::now);
    {
        let keys = cur.keys_slice();
        for &e in work.survivors.iter() {
            let (am_s, lm_s) = split(keys[e as usize]);
            am.prefetch_state(am_s);
            lm.prefetch_state(lm_s);
        }
    }
    tick(sink, t0, KernelPhase::BatchProbe);

    let t0 = timing.then(Instant::now);
    {
        let next = &mut work.next;
        let olt = &mut work.olt;
        let bias = &mut session.bias_cache;
        let probes = &mut work.probes;
        let stage = &mut work.arc_stage;
        let lattice = &mut session.lattice;
        let survivors = &work.survivors;
        // The ε-closure's initial worklist, filled in entry order.
        let seeds = &mut work.worklist;
        seeds.clear();
        let keys = cur.keys_slice();
        for (j, &e) in survivors.iter().enumerate() {
            // Software pipelining: warm survivor j+1's state records
            // while survivor j expands.
            if let Some(&ne) = survivors.get(j + 1) {
                let (am_n, lm_n) = split(keys[ne as usize]);
                am.prefetch_state(am_n);
                lm.prefetch_state(lm_n);
            }
            let (k, tok) = cur.pair_at(e as usize);
            let (am_s, lm_s) = split(k);
            sink.state_fetch(am.state_addr(am_s));
            // Replay the state's decoded arcs from the staging arena
            // (first visit stages them): a contiguous slice walk where
            // the scalar loop re-unpacks the compressed bit stream.
            let ((arcs, footprints), eps) = stage.arcs_and_eps(am, am_s, observe);
            for (i, &arc) in arcs.iter().enumerate() {
                if observe {
                    let (addr, bytes) = footprints[i];
                    sink.am_arc_fetch(addr, bytes);
                }
                if arc.ilabel == EPSILON {
                    continue; // non-emitting: closure phase
                }
                sink.acoustic_fetch(t, arc.ilabel);
                // Validated once per model in `ensure_validated`.
                debug_assert!(
                    (arc.ilabel as usize) <= costs.len(),
                    "pdf {} beyond the {}-wide score row",
                    arc.ilabel,
                    costs.len()
                );
                // Same tropical ⊗-chain as the scalar loop: identical
                // left-to-right f32 additions, identical bits.
                let base = TropicalWeight::from_cost(tok.cost)
                    .times(TropicalWeight::from_cost(arc.weight))
                    .times(TropicalWeight::from_cost(costs[arc.ilabel as usize - 1]))
                    .value();
                stats.tokens_created += 1;
                if base > next_best + config.beam {
                    stats.tokens_pruned += 1;
                    continue;
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
                        None => continue,
                    }
                } else {
                    (lm_s, base, EPSILON)
                };
                next_best = TropicalWeight::from_cost(cost)
                    .plus(TropicalWeight::from_cost(next_best))
                    .value();
                // A relaxation into the store's old length created a
                // new entry. It becomes a closure seed if its state has
                // an ε-input arc.
                let fresh = next.len() as u32;
                let (dst, _) = relax_soa(
                    next,
                    token_key(arc.nextstate, lm_next),
                    cost,
                    tok.lat,
                    word,
                    t as u32,
                    lattice,
                    sink,
                );
                lattice.record(e, dst, word, cost);
                if dst == fresh && eps.has_eps(arc.nextstate) {
                    seeds.push(fresh);
                }
            }
        }
    }
    tick(sink, t0, KernelPhase::Expand);

    let t0 = timing.then(Instant::now);
    epsilon_closure_soa(
        config,
        am,
        lm,
        &mut work.next,
        &mut work.worklist,
        &mut work.eps_local,
        &mut work.probes,
        &mut work.olt,
        &mut session.bias_cache,
        &mut work.arc_stage,
        &mut session.lattice,
        t as u32,
        next_best + config.beam,
        sink,
        stats,
    );
    tick(sink, t0, KernelPhase::Closure);
    sink.stage_exit(DecodeStage::ArcExpansion);

    // Frame-end fold over the contiguous cost lane. The `is_finite`
    // conditional replicates the scalar fold exactly: it differs from
    // a plain `max` when +inf costs appear, and the FrameEnd event is
    // part of the recorded identity.
    let mut best = TropicalWeight::zero();
    let mut worst = f32::INFINITY;
    for &c in work.next.costs() {
        best = TropicalWeight::from_cost(c).plus(best);
        worst = if worst.is_finite() { worst.max(c) } else { c };
    }
    sink.frame_end(t, work.next.len(), best.value(), worst);
}

/// The ε-closure, kept bit-identical to the scalar one in
/// [`crate::reference`]: the worklist
/// holds dense entry indices, so a pop re-reads the (possibly
/// improved) token with a lane load instead of a hash walk.
///
/// The caller hands in the initial worklist: the ascending entries of
/// `tokens` whose state has an ε-input arc. The scalar closure starts
/// from every entry, but a pop of an ε-free state does nothing: no
/// event, no counter (and here, no staging).
/// Leaving those entries out keeps every other entry in the same
/// relative order, so the LIFO pops that do work — and therefore the
/// event stream — match the scalar closure token for token. Entry
/// indices are stable under insertion (nothing is ever removed
/// mid-closure).
#[allow(clippy::too_many_arguments)]
pub(crate) fn epsilon_closure_soa<
    A: AmSource + ?Sized,
    L: LmSource + ?Sized,
    S: TraceSink + ?Sized,
>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    tokens: &mut TokenStore,
    worklist: &mut Vec<u32>,
    eps_local: &mut Vec<(StateId, f32, Label)>,
    probes: &mut Vec<Fetch>,
    olt: &mut SoftOlt,
    bias: &mut SoftOlt,
    stage: &mut ArcStage,
    lattice: &mut Lattice,
    frame: u32,
    thr: f32,
    sink: &mut S,
    stats: &mut DecodeStats,
) {
    // The caller bound the stage with the same sink, so the footprints
    // are there when this is set.
    let observe = !sink.is_null();
    lattice.start_closure();
    let mut guard = 0u64;
    while let Some(e) = worklist.pop() {
        guard += 1;
        assert!(
            guard < 100_000_000,
            "epsilon closure diverged: negative cycle?"
        );
        let (k, tok) = tokens.pair_at(e as usize);
        if tok.cost > thr {
            continue;
        }
        let (am_s, lm_s) = split(k);
        // A state without ε-input arcs emits nothing here: skip it
        // before touching its arcs.
        let Some((arcs, footprints)) = stage.eps_arcs(am, am_s, observe) else {
            continue;
        };
        eps_local.clear();
        // Replay from the staging arena: the epsilon filter scans a
        // contiguous decoded slice instead of re-unpacking the state's
        // compressed arc stream on every worklist pop.
        for (i, arc) in arcs.iter().enumerate() {
            if arc.ilabel != EPSILON {
                continue;
            }
            if observe {
                let (addr, bytes) = footprints[i];
                sink.am_arc_fetch(addr, bytes);
            }
            stats.epsilon_expansions += 1;
            eps_local.push((
                arc.nextstate,
                TropicalWeight::from_cost(tok.cost)
                    .times(TropicalWeight::from_cost(arc.weight))
                    .value(),
                arc.olabel,
            ));
        }
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
            let (dst, improved) = relax_soa(
                tokens,
                token_key(am_next, lm_next),
                cost,
                tok.lat,
                out_word,
                frame,
                lattice,
                sink,
            );
            lattice.record(e, dst, out_word, cost);
            if improved {
                worklist.push(dst);
            }
        }
    }
}

/// Fused relaxation: one [`TokenStore::probe`] hash walk serves both
/// the improvement test and the commit (the scalar `relax` pays a
/// `get` walk and then an `insert` walk). Emits the identical event
/// sequence — `token_store` (for word-bearing arcs) then
/// `hash_insert`, only on improvement — and returns the destination's
/// dense entry index, improved or not, with whether it improved: the
/// tape names the destination by it, and the closure worklist takes it
/// on improvement.
#[allow(clippy::too_many_arguments)]
fn relax_soa<S: TraceSink + ?Sized>(
    map: &mut TokenStore,
    k: u64,
    cost: f32,
    parent_lat: u32,
    word: Label,
    frame: u32,
    lattice: &mut Lattice,
    sink: &mut S,
) -> (u32, bool) {
    let p = map.probe(k);
    let existing = p.entry();
    if let Some(e) = existing {
        // Negated on purpose — same predicate shape as the scalar
        // `cost < existing.cost` test, NaN behaviour included.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let keep_existing = !(cost < map.costs()[e as usize]);
        if keep_existing {
            return (e, false);
        }
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
    match existing {
        Some(e) => {
            map.update_entry(e, Token { cost, lat });
            (e, true)
        }
        None => {
            map.insert_probed(p, k, Token { cost, lat });
            (map.len() as u32 - 1, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DecodeConfig, DecodeResult};
    use crate::lattice::WordLattice;
    use crate::otf::OtfDecoder;
    use crate::record::{TraceEvent, TraceRecorder};
    use crate::reference;
    use crate::scratch::DecodeScratch;
    use crate::trace::NullSink;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use unfold_am::{
        build_am, synthesize_utterance, AcousticScores, HmmTopology, Lexicon, NoiseModel,
    };
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::Wfst;

    fn models() -> &'static (Lexicon, Wfst, Wfst) {
        static MODELS: OnceLock<(Lexicon, Wfst, Wfst)> = OnceLock::new();
        MODELS.get_or_init(|| {
            let lex = Lexicon::generate(60, 25, 4);
            let am = build_am(&lex, HmmTopology::Kaldi3State);
            let spec = CorpusSpec {
                vocab_size: 60,
                num_sentences: 400,
                ..Default::default()
            };
            let model = NGramModel::train(&spec.generate(5), 60, DiscountConfig::default());
            (lex, am.fst, lm_to_wfst(&model))
        })
    }

    /// Decodes with the kernel and with the scalar reference loop, the
    /// lattice off and on, and asserts full bit identity: transcript,
    /// cost bits, every stats counter, the ordered trace-event stream
    /// (the strongest observable equivalence the decoder exposes — it
    /// implies identical OLT install/evict order) and the lattice.
    fn assert_kernels_identical(am: &Wfst, config: &DecodeConfig, scores: &AcousticScores) {
        let lm = &models().2;
        let dec = OtfDecoder::new(*config);
        for record in [false, true] {
            let mut rec_ref = TraceRecorder::default();
            let mut rec = TraceRecorder::default();
            let (a, a_lat) = reference::decode(config, am, lm, scores, record, &mut rec_ref);
            let (b, b_lat) = if record {
                dec.decode_lattice(am, lm, scores, &mut rec)
            } else {
                (dec.decode(am, lm, scores, &mut rec), WordLattice::empty())
            };
            let what = format!("record={record}");
            assert_eq!(a.words, b.words, "{what}: transcripts diverged");
            assert_eq!(
                a.cost.to_bits(),
                b.cost.to_bits(),
                "{what}: cost bits diverged"
            );
            assert_eq!(a.stats, b.stats, "{what}: stats diverged");
            assert_same_events(rec_ref.events(), rec.events(), &what);
            assert!(a_lat.bit_identical(&b_lat), "{what}: lattices diverged");
        }
    }

    /// Asserts two ordered event streams are identical, comparing the
    /// costs a `FrameEnd` carries by their bits, so a NaN cost (from a
    /// NaN score row) equals itself. Reports the first divergence
    /// rather than dumping both streams.
    fn assert_same_events(a: &[TraceEvent], b: &[TraceEvent], what: &str) {
        let bits = |e: &TraceEvent| match *e {
            TraceEvent::FrameEnd(t, n, best, worst) => Err((t, n, best.to_bits(), worst.to_bits())),
            other => Ok(other),
        };
        let first = a.iter().zip(b).position(|(x, y)| bits(x) != bits(y));
        if let Some(i) = first {
            panic!(
                "{what}: ordered trace-event streams diverged at event {i}: {:?} vs {:?}",
                a[i], b[i]
            );
        }
        assert_eq!(a.len(), b.len(), "{what}: event stream lengths diverged");
    }

    #[test]
    fn soa_matches_legacy_on_clean_decode() {
        let (lex, _, _) = models();
        let utt = synthesize_utterance(
            &[7, 3, 15, 2],
            lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            11,
        );
        assert_kernels_identical(&models().1, &DecodeConfig::default(), &utt.scores);
    }

    #[test]
    fn soa_matches_legacy_under_tight_beam_and_olt() {
        let (lex, _, _) = models();
        // Rare words + noise: back-off walks, preemptive prunes, OLT
        // evictions all fire on this workload.
        let noise = NoiseModel {
            noise_sigma: 1.3,
            ..NoiseModel::default()
        };
        let utt = synthesize_utterance(
            &[55, 58, 33, 59, 41, 60],
            lex,
            HmmTopology::Kaldi3State,
            &noise,
            23,
        );
        for olt in [0usize, 64] {
            for max_active in [40usize, usize::MAX] {
                let cfg = DecodeConfig::builder()
                    .beam(8.0)
                    .max_active(max_active)
                    .olt_entries(olt)
                    .preemptive_pruning(true)
                    .build()
                    .unwrap();
                assert_kernels_identical(&models().1, &cfg, &utt.scores);
            }
        }
    }

    /// `scores` with row `t` overwritten: every PDF's cost NaN when
    /// `every` is 1, every `every`-th one otherwise.
    fn with_nan_row(scores: &AcousticScores, t: usize, every: usize) -> AcousticScores {
        let n = scores.num_pdfs();
        let mut flat: Vec<f32> = (0..scores.num_frames())
            .flat_map(|f| scores.frame(f).iter().copied())
            .collect();
        for c in flat[t * n..(t + 1) * n].iter_mut().step_by(every) {
            *c = f32::NAN;
        }
        AcousticScores::from_flat(flat, n)
    }

    /// A NaN score row at mid-utterance — serve passes precomputed rows
    /// through verbatim — under histogram pruning tight enough to rank
    /// NaN costs against numbers: the decode completes, and the kernel
    /// stays bit-identical to the reference.
    #[test]
    fn nan_score_row_decodes_identically_under_histogram_pruning() {
        let (lex, am, lm) = models();
        let utt = synthesize_utterance(
            &[7, 3],
            lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            11,
        );
        let mid = utt.scores.num_frames() / 2;
        for every in [1, 3] {
            let scores = with_nan_row(&utt.scores, mid, every);
            for max_active in [3, 40] {
                let cfg = DecodeConfig::builder()
                    .max_active(max_active)
                    .build()
                    .unwrap();
                assert_kernels_identical(am, &cfg, &scores);
                let r = OtfDecoder::new(cfg).decode(am, lm, &scores, &mut NullSink);
                assert_eq!(r.stats.frames, utt.scores.num_frames());
            }
        }
    }

    /// The CTC acoustic model over [`models`]' lexicon.
    fn ctc_am() -> &'static Wfst {
        static AM: OnceLock<Wfst> = OnceLock::new();
        AM.get_or_init(|| build_am(&models().0, HmmTopology::Ctc).fst)
    }

    /// A decode on a fresh scratch whose arc stage is capped at
    /// `cap` visits (uncapped when `None`): the result, the ordered
    /// events, and how many visits the stage ended up holding.
    fn soa_decode_capped(
        am: &Wfst,
        scores: &AcousticScores,
        cap: Option<usize>,
    ) -> (DecodeResult, TraceRecorder, usize) {
        let cfg = DecodeConfig::default();
        let mut scratch = DecodeScratch::new();
        if let Some(cap) = cap {
            scratch.work.arc_stage.set_cap(cap);
        }
        let mut rec = TraceRecorder::default();
        let r = OtfDecoder::new(cfg).decode_with(am, &models().2, scores, &mut scratch, &mut rec);
        (r, rec, scratch.work.arc_stage.staged_visits())
    }

    /// The arc stage past its cap, which no test model reaches at the
    /// real `ARENA_CAP` of 2^20 visits. Capped at a few visits, nearly
    /// every state decodes through the transient buffer, with no span
    /// but its seeded ε flag: the decode must still be bit-identical to
    /// the uncapped one on both topologies.
    #[test]
    fn over_cap_arc_stage_decodes_identically_on_both_topologies() {
        let lex = &models().0;
        for (topology, am) in [
            (HmmTopology::Kaldi3State, &models().1),
            (HmmTopology::Ctc, ctc_am()),
        ] {
            let utt =
                synthesize_utterance(&[7, 3, 15, 2], lex, topology, &NoiseModel::default(), 5);
            let (want, want_rec, staged) = soa_decode_capped(am, &utt.scores, None);
            assert!(want.is_complete(), "{topology:?}: no complete hypothesis");
            for cap in [0, 1, 8, 64] {
                let (got, got_rec, capped) = soa_decode_capped(am, &utt.scores, Some(cap));
                assert!(
                    capped < staged,
                    "{topology:?} cap {cap}: never over the cap"
                );
                assert_eq!(got.words, want.words, "{topology:?} cap {cap}: words");
                assert_eq!(
                    got.cost.to_bits(),
                    want.cost.to_bits(),
                    "{topology:?} cap {cap}: cost bits"
                );
                assert_eq!(got.stats, want.stats, "{topology:?} cap {cap}: stats");
                assert_same_events(
                    got_rec.events(),
                    want_rec.events(),
                    &format!("{topology:?} cap {cap}"),
                );
            }
        }
    }

    /// Checks a decode against the reference loop's: words, cost bits
    /// and stats always, and the ordered events when it was observed.
    fn assert_like_reference(
        got: &DecodeResult,
        events: Option<&[TraceEvent]>,
        want: &(DecodeResult, TraceRecorder),
        what: &str,
    ) {
        assert_eq!(got.words, want.0.words, "{what}: words");
        assert_eq!(
            got.cost.to_bits(),
            want.0.cost.to_bits(),
            "{what}: cost bits"
        );
        assert_eq!(got.stats, want.0.stats, "{what}: stats");
        if let Some(events) = events {
            assert_same_events(want.1.events(), events, what);
        }
    }

    /// One `DecodeScratch`, and one `WorkScratch` lent to a
    /// `StreamSession`, serve `NullSink` decodes, then a recorder, then
    /// `NullSink` again, then a recorder: the arc stage starts blind,
    /// switches to recording fetch footprints at the first observed
    /// decode and keeps them. Every observed decode must be
    /// event-identical to the reference loop, and every blind one must
    /// return its result. Capped stages (0, 1 and 8 visits) run the
    /// transient buffer's footprint lane too.
    #[test]
    fn observed_decodes_match_the_reference_across_the_mode_switch() {
        use crate::scratch::WorkScratch;
        use crate::streaming::StreamSession;
        use crate::trace::TraceSink;
        let (lex, am, lm) = models();
        let utts: Vec<AcousticScores> = [(&[7u32, 3, 15, 2][..], 11u64), (&[55, 58, 33], 23)]
            .into_iter()
            .map(|(words, seed)| {
                let noise = NoiseModel::default();
                synthesize_utterance(words, lex, HmmTopology::Kaldi3State, &noise, seed).scores
            })
            .collect();
        let cfg = DecodeConfig::default();
        let dec = OtfDecoder::new(cfg);
        let want: Vec<(DecodeResult, TraceRecorder)> = utts
            .iter()
            .map(|scores| {
                let mut rec = TraceRecorder::default();
                let (r, _) = reference::decode(&cfg, am, lm, scores, false, &mut rec);
                (r, rec)
            })
            .collect();
        for cap in [None, Some(0), Some(1), Some(8)] {
            let mut scratch = DecodeScratch::new();
            let mut work = WorkScratch::new();
            if let Some(cap) = cap {
                scratch.work.arc_stage.set_cap(cap);
                work.arc_stage.set_cap(cap);
            }
            for (pass, observed) in [false, false, true, false, true].into_iter().enumerate() {
                for (i, scores) in utts.iter().enumerate() {
                    let what = format!("cap {cap:?} pass {pass} utterance {i}");
                    let mut rec = TraceRecorder::default();
                    let sink: &mut dyn TraceSink = if observed { &mut rec } else { &mut NullSink };
                    let got = dec.decode_with(am, lm, scores, &mut scratch, sink);
                    let events = observed.then_some(rec.events());
                    assert_like_reference(&got, events, &want[i], &format!("{what} batch"));

                    let mut rec = TraceRecorder::default();
                    let sink: &mut dyn TraceSink = if observed { &mut rec } else { &mut NullSink };
                    work.begin(&cfg);
                    let mut sess = StreamSession::new(cfg);
                    sess.seed(am, lm, &mut work, sink);
                    for t in 0..scores.num_frames() {
                        sess.push_frame(am, lm, &mut work, scores.frame(t), sink);
                    }
                    let got = sess.finalize(am, sink);
                    let events = observed.then_some(rec.events());
                    assert_like_reference(&got, events, &want[i], &format!("{what} stream"));
                }
                // Blind decodes leave the footprint lanes unallocated
                // until the first observed one.
                let observed_yet = pass >= 2;
                for (stage, path) in [
                    (&scratch.work.arc_stage, "batch"),
                    (&work.arc_stage, "stream"),
                ] {
                    assert_eq!(
                        stage.holds_footprints(),
                        observed_yet,
                        "cap {cap:?} pass {pass} {path}"
                    );
                }
            }
        }
    }

    /// Counts relaxations that hit a token the same ε-closure already
    /// relaxed, by the hash inserts between the kernel's `Expand` and
    /// `Closure` phase reports (asking for phase timing is what makes
    /// the kernel send them).
    #[derive(Default)]
    struct ClosureRelaxCounter {
        in_closure: bool,
        relaxed: std::collections::HashSet<u64>,
        repeats: usize,
    }

    impl crate::trace::TraceSink for ClosureRelaxCounter {
        fn wants_kernel_timing(&self) -> bool {
            true
        }
        fn kernel_phase(&mut self, phase: crate::trace::KernelPhase, _ns: u64) {
            use crate::trace::KernelPhase;
            match phase {
                KernelPhase::Expand => {
                    self.in_closure = true;
                    self.relaxed.clear();
                }
                KernelPhase::Closure => self.in_closure = false,
                _ => {}
            }
        }
        fn hash_insert(&mut self, k: u64) {
            if self.in_closure && !self.relaxed.insert(k) {
                self.repeats += 1;
            }
        }
    }

    /// The order the ε-closure pops its worklist in shows in the event
    /// stream once a closure relaxes one token twice: which relaxation
    /// comes first decides whether the second improves. On the Kaldi
    /// topology that takes a wide frontier (ten flat score rows under a
    /// wide beam); on CTC an ordinary noisy utterance does it. Both
    /// decodes must stay bit-identical to the reference loop.
    #[test]
    fn soa_matches_the_reference_when_a_closure_relaxes_a_token_twice() {
        let (lex, kaldi, lm) = models();
        let noise = |noise_sigma| NoiseModel {
            noise_sigma,
            ..NoiseModel::default()
        };
        let opened_flat = {
            let utt = synthesize_utterance(
                &[7, 3, 15, 2],
                lex,
                HmmTopology::Kaldi3State,
                &noise(0.5),
                5,
            );
            let n = utt.scores.num_pdfs();
            let rows = (0..utt.scores.num_frames())
                .flat_map(|t| {
                    let row = utt.scores.frame(t);
                    (0..n).map(move |p| if t < 10 { 0.0 } else { row[p] })
                })
                .collect();
            AcousticScores::from_flat(rows, n)
        };
        let ctc = synthesize_utterance(&[36, 7, 20], lex, HmmTopology::Ctc, &noise(1.0), 536);
        let cases = [
            (
                kaldi,
                opened_flat,
                DecodeConfig::builder().beam(16.0).build().unwrap(),
            ),
            (
                ctc_am(),
                ctc.scores,
                DecodeConfig::builder()
                    .beam(14.5)
                    .max_active(200)
                    .build()
                    .unwrap(),
            ),
        ];
        for (am, scores, cfg) in &cases {
            assert_kernels_identical(am, cfg, scores);
            let mut counter = ClosureRelaxCounter::default();
            let _ = OtfDecoder::new(*cfg).decode(*am, lm, scores, &mut counter);
            assert!(counter.repeats > 0, "no closure relaxed a token twice");
        }
    }

    #[test]
    fn soa_kernel_emits_phase_timing_when_asked() {
        use crate::metrics::MetricsSink;
        use crate::trace::KernelPhase;
        let (lex, am, lm) = models();
        let utt = synthesize_utterance(
            &[2, 4, 6],
            lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            3,
        );
        let cfg = DecodeConfig::default();
        let mut sink = MetricsSink::new();
        let _ = OtfDecoder::new(cfg).decode(am, lm, &utt.scores, &mut sink);
        for phase in KernelPhase::ALL {
            assert!(
                sink.kernel_phases().count(phase.index()) > 0,
                "phase {} never reported",
                phase.name()
            );
        }
        // A sink that doesn't ask (NullSink) costs no phase clock reads
        // and, crucially, changes nothing about the decode itself.
        let timed = OtfDecoder::new(cfg).decode(am, lm, &utt.scores, &mut NullSink);
        assert!(timed.is_complete());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The `soa_identity` contract: across a randomized grid of
        /// topology × utterances × beam × olt_entries × max_active ×
        /// preemptive pruning, the kernel and the reference loop are
        /// bit-identical in transcript, cost, stats, ordered trace
        /// events and lattice.
        #[test]
        fn soa_identity_under_config_grid(
            ctc in any::<bool>(),
            words in proptest::collection::vec(1u32..=60, 1..6),
            seed in 0u64..1000,
            noise_sigma in 0.0f32..1.5,
            beam in 5.0f32..16.0,
            olt_idx in 0usize..3,
            max_active_idx in 0usize..3,
            preemptive in any::<bool>(),
        ) {
            let (lex, kaldi, _) = models();
            let (topology, am) = if ctc {
                (HmmTopology::Ctc, ctc_am())
            } else {
                (HmmTopology::Kaldi3State, kaldi)
            };
            let noise = NoiseModel { noise_sigma, ..NoiseModel::default() };
            let utt = synthesize_utterance(&words, lex, topology, &noise, seed);
            let olt = [0usize, 64, 256][olt_idx];
            let max_active = [30usize, 200, usize::MAX][max_active_idx];
            let cfg = DecodeConfig::builder()
                .beam(beam)
                .max_active(max_active)
                .olt_entries(olt)
                .preemptive_pruning(preemptive)
                .build()
                .unwrap();
            assert_kernels_identical(am, &cfg, &utt.scores);
        }
    }
}
