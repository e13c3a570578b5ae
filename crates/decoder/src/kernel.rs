//! The SoA frame kernel ([`crate::config::DecodeKernel::Soa`]).
//!
//! Same search, different loop shape. The legacy kernel walks the
//! token map entry-by-entry, re-hashing on every relaxation; this
//! kernel exploits the struct-of-arrays [`TokenStore`] layout so the
//! hot phases run over contiguous lanes:
//!
//! * **Threshold** — the beam compare runs over the `costs` lane as a
//!   branch-free fold producing a packed `u64` survivor bitmask
//!   (bit = `!(cost > thr)`, so NaN handling is bit-identical to the
//!   legacy `cost > thr` prune), which the stable-Rust autovectorizer
//!   turns into SIMD compares.
//! * **BatchProbe** — survivor indices are compacted out of the mask
//!   with `trailing_zeros`/`b &= b - 1`, then a tight prefetch loop
//!   issues [`AmSource::prefetch_state`]/[`LmSource::prefetch_state`]
//!   hints over the whole probe buffer before any expansion work. The
//!   hints are contents-neutral: true reordered OLT probing would
//!   reorder install/evict decisions and break trace identity, so the
//!   batched pass warms caches while [`crate::otf::lm_walk`] — shared
//!   verbatim with the legacy kernel — performs every probe/install in
//!   the original order (see DESIGN.md §13).
//! * **Expand** — each survivor's arcs replay from the decoded-arc
//!   staging arena ([`crate::scratch::ArcStage`]): the first visit to
//!   an AM state unpacks its compressed arc stream once into a flat
//!   slice, and every later visit — HMM self-loops revisit the same
//!   states frame after frame — is a contiguous walk that skips the
//!   bit-stream decode entirely. The walk software-pipelines: while
//!   survivor `j` expands, survivor `j + 1`'s AM/LM state records are
//!   prefetched. Relaxations use a fused probe-then-commit
//!   ([`TokenStore::probe`] + [`TokenStore::insert_probed`]): one hash
//!   walk where the legacy path pays two.
//! * **Closure** — the epsilon worklist holds dense entry indices
//!   (`u32`) instead of keys, so a pop re-reads a token with a lane
//!   load instead of a hash walk; the epsilon filter scans the staged
//!   slice rather than re-decoding the state's arcs on every pop.
//!
//! Every [`TraceSink`] event and every [`DecodeStats`] counter is
//! emitted at exactly the same point as the legacy kernel — the two
//! are differential-tested for bit identity (transcripts, cost bits,
//! stats, ordered event streams) by the `soa_identity` proptests and
//! verify-matrix check. The only sink calls unique to this module are
//! the [`KernelPhase`] timers, which are observability-only and
//! explicitly excluded from trace identity (the recorder ignores
//! them).
//!
//! Every function here is generic over its sink `S`. The callers in
//! [`crate::otf`] instantiate it twice: with [`crate::NullSink`] when
//! the caller's sink reports [`TraceSink::is_null`], so every event
//! call is an empty inlined body, and with `dyn TraceSink` otherwise.

use std::time::Instant;

use unfold_wfst::{Label, Semiring, StateId, TropicalWeight, EPSILON};

use crate::config::{DecodeConfig, DecodeStats};
use crate::lattice::{Lattice, COMPACT_ENTRY_BYTES};
use crate::olt::SoftOlt;
use crate::otf::{lm_walk, split, token_key};
use crate::scratch::{ArcStage, SessionScratch, WorkScratch};
use crate::search::{prune_threshold_store, Token, TokenStore};
use crate::sources::{addr, AmSource, Fetch, LmSource};
use crate::trace::{DecodeStage, KernelPhase, TraceSink};

/// Reports a finished kernel phase to sinks that asked for timing.
#[inline]
fn tick<S: TraceSink + ?Sized>(sink: &mut S, t0: Option<Instant>, phase: KernelPhase) {
    if let Some(t0) = t0 {
        sink.kernel_phase(phase, t0.elapsed().as_nanos() as u64);
    }
}

/// SoA counterpart of [`crate::otf::expand_frame`]'s legacy body:
/// identical event stream and stats, lane-oriented inner loops.
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
    costs: &[f32],
    t: usize,
    sink: &mut S,
    stats: &mut DecodeStats,
) {
    work.ensure_validated(am, lm, costs.len());
    work.bind_arc_stage(am);
    session.lattice.advance_pop();
    sink.frame_start(t, session.cur.len());
    stats.frames += 1;
    stats.max_active = stats.max_active.max(session.cur.len());
    stats.total_active += session.cur.len() as u64;
    let timing = sink.wants_kernel_timing();

    sink.stage_enter(DecodeStage::Pruning);
    let t0 = timing.then(Instant::now);
    let thr = prune_threshold_store(
        &session.cur,
        config.beam,
        config.max_active,
        &mut work.prune_costs,
    );
    // Beam compare over the contiguous cost lane into packed flags.
    // `!(c > thr)` (not `c <= thr`) so a NaN cost survives exactly as
    // it does under the legacy `cost > thr` prune test.
    let n = session.cur.len();
    {
        let cs = session.cur.costs();
        let mask = &mut work.survivor_mask;
        mask.clear();
        mask.resize(n.div_ceil(64), 0);
        for (w, chunk) in mask.iter_mut().zip(cs.chunks(64)) {
            let mut bits = 0u64;
            for (i, &c) in chunk.iter().enumerate() {
                // Negated on purpose: `!(c > thr)` (not `c <= thr`) so
                // NaN costs survive exactly as under the legacy prune.
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
    tick(sink, t0, KernelPhase::Threshold);
    sink.stage_switch(DecodeStage::Pruning, DecodeStage::ArcExpansion);
    session.next.clear();
    let mut next_best = f32::INFINITY;

    // Batched probe pass: issue prefetch hints for every survivor's
    // AM and LM state records before expansion touches any of them.
    let t0 = timing.then(Instant::now);
    {
        let keys = session.cur.keys_slice();
        for &e in work.survivors.iter() {
            let (am_s, lm_s) = split(keys[e as usize]);
            am.prefetch_state(am_s);
            lm.prefetch_state(lm_s);
        }
    }
    tick(sink, t0, KernelPhase::BatchProbe);

    let t0 = timing.then(Instant::now);
    {
        let cur = &session.cur;
        let next = &mut session.next;
        let olt = &mut work.olt;
        let bias = &mut session.bias_cache;
        let probes = &mut work.probes;
        let stage = &mut work.arc_stage;
        let lattice = &mut session.lattice;
        let survivors = &work.survivors;
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
            // the legacy kernel re-unpacks the compressed bit stream.
            for &v in stage.arcs(am, am_s) {
                sink.am_arc_fetch(v.addr, v.bytes);
                let arc = v.arc;
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
                // Same tropical ⊗-chain as the legacy kernel: identical
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
                lattice.record_emit(k, token_key(arc.nextstate, lm_next), word, cost);
                relax_soa(
                    next,
                    token_key(arc.nextstate, lm_next),
                    cost,
                    tok.lat,
                    word,
                    t as u32,
                    lattice,
                    sink,
                );
            }
        }
    }
    tick(sink, t0, KernelPhase::Expand);

    let t0 = timing.then(Instant::now);
    epsilon_closure_soa(
        config,
        am,
        lm,
        &mut session.next,
        &mut work.worklist_idx,
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
    // conditional replicates the legacy fold exactly: it differs from
    // a plain `max` when +inf costs appear, and the FrameEnd event is
    // part of the recorded identity.
    let mut best = TropicalWeight::zero();
    let mut worst = f32::INFINITY;
    for &c in session.next.costs() {
        best = TropicalWeight::from_cost(c).plus(best);
        worst = if worst.is_finite() { worst.max(c) } else { c };
    }
    sink.frame_end(t, session.next.len(), best.value(), worst);
    std::mem::swap(&mut session.cur, &mut session.next);
}

/// SoA counterpart of [`crate::otf::epsilon_closure`]: the worklist
/// holds dense entry indices, so a pop re-reads the (possibly
/// improved) token with a lane load instead of a hash walk. Entry
/// indices are stable under insertion (nothing is ever removed
/// mid-closure), and `0..len` enumerates exactly `tokens.keys()` in
/// insertion order, so the LIFO processing order — and therefore the
/// event stream — matches the legacy closure token for token.
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
    worklist.clear();
    worklist.extend(0..tokens.len() as u32);
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
        eps_local.clear();
        // Replay from the staging arena: the epsilon filter scans a
        // contiguous decoded slice instead of re-unpacking the state's
        // compressed arc stream on every worklist pop.
        for v in stage.arcs(am, am_s) {
            if v.arc.ilabel != EPSILON {
                continue;
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
            lattice.record_eps(k, token_key(am_next, lm_next), out_word, cost);
            if let Some(ne) = relax_soa(
                tokens,
                token_key(am_next, lm_next),
                cost,
                tok.lat,
                out_word,
                frame,
                lattice,
                sink,
            ) {
                worklist.push(ne);
            }
        }
    }
}

/// Fused relaxation: one [`TokenStore::probe`] hash walk serves both
/// the improvement test and the commit (the legacy `relax` pays a
/// `get` walk and then an `insert` walk). Emits the identical event
/// sequence — `token_store` (for word-bearing arcs) then
/// `hash_insert`, only on improvement — and returns the improved
/// token's dense entry index for the closure worklist.
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
) -> Option<u32> {
    let p = map.probe(k);
    let existing = p.entry();
    if let Some(e) = existing {
        // Negated on purpose — same predicate shape as the legacy
        // `cost < existing.cost` test, NaN behaviour included.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let keep_existing = !(cost < map.costs()[e as usize]);
        if keep_existing {
            return None;
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
            Some(e)
        }
        None => {
            map.insert_probed(p, k, Token { cost, lat });
            Some(map.len() as u32 - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DecodeConfig, DecodeKernel};
    use crate::otf::OtfDecoder;
    use crate::record::TraceRecorder;
    use crate::trace::NullSink;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
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

    /// Decodes with both kernels and asserts full bit identity:
    /// transcript, cost bits, every stats counter, and the ordered
    /// trace-event stream (the strongest observable equivalence the
    /// decoder exposes — it implies identical OLT install/evict order).
    fn assert_kernels_identical(config: &DecodeConfig, scores: &unfold_am::AcousticScores) {
        let (_, am, lm) = models();
        let legacy_cfg = config
            .to_builder()
            .kernel(DecodeKernel::Legacy)
            .build()
            .unwrap();
        let soa_cfg = config
            .to_builder()
            .kernel(DecodeKernel::Soa)
            .build()
            .unwrap();
        let mut rec_legacy = TraceRecorder::default();
        let mut rec_soa = TraceRecorder::default();
        let a = OtfDecoder::new(legacy_cfg).decode(am, lm, scores, &mut rec_legacy);
        let b = OtfDecoder::new(soa_cfg).decode(am, lm, scores, &mut rec_soa);
        assert_eq!(a.words, b.words, "transcripts diverged");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cost bits diverged");
        assert_eq!(a.stats, b.stats, "stats diverged");
        assert_eq!(
            rec_legacy.events(),
            rec_soa.events(),
            "ordered trace-event streams diverged"
        );
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
        assert_kernels_identical(&DecodeConfig::default(), &utt.scores);
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
                assert_kernels_identical(&cfg, &utt.scores);
            }
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
        let cfg = DecodeConfig::builder()
            .kernel(DecodeKernel::Soa)
            .build()
            .unwrap();
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
        let cfg2 = DecodeConfig::builder()
            .kernel(DecodeKernel::Soa)
            .build()
            .unwrap();
        let timed = OtfDecoder::new(cfg2).decode(am, lm, &utt.scores, &mut NullSink);
        assert!(timed.is_complete());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The `soa_identity` contract: across a randomized grid of
        /// utterances × beam × olt_entries × max_active × preemptive
        /// pruning, both kernels are bit-identical in transcript, cost,
        /// stats, and ordered trace events.
        #[test]
        fn soa_identity_under_config_grid(
            words in proptest::collection::vec(1u32..=60, 1..6),
            seed in 0u64..1000,
            noise_sigma in 0.0f32..1.5,
            beam in 5.0f32..16.0,
            olt_idx in 0usize..3,
            max_active_idx in 0usize..3,
            preemptive in any::<bool>(),
        ) {
            let (lex, _, _) = models();
            let noise = NoiseModel { noise_sigma, ..NoiseModel::default() };
            let utt = synthesize_utterance(
                &words, lex, HmmTopology::Kaldi3State, &noise, seed,
            );
            let olt = [0usize, 64, 256][olt_idx];
            let max_active = [30usize, 200, usize::MAX][max_active_idx];
            let cfg = DecodeConfig::builder()
                .beam(beam)
                .max_active(max_active)
                .olt_entries(olt)
                .preemptive_pruning(preemptive)
                .build()
                .unwrap();
            assert_kernels_identical(&cfg, &utt.scores);
        }
    }
}
