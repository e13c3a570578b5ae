//! The scalar decode loop, kept as the test oracle for the product
//! kernel ([`crate::OtfDecoder`], whose frame loop lives in the
//! crate-private `kernel` module).
//!
//! It is the plain form of the search: the token store walked entry by
//! entry, a `get`-then-`insert` relaxation, every AM state's arcs
//! decoded on every visit, and an ε-closure whose worklist holds token
//! keys and starts from every entry. The product
//! kernel lays the same search out over contiguous lanes, and must
//! match this loop bit for bit: words, cost bits, every
//! [`DecodeStats`] counter, the ordered [`TraceSink`] event stream and
//! the word lattice. Tests and `unfold-verify`'s `soa-identity` row
//! compare the two. Nothing in [`DecodeConfig`] selects this loop;
//! only a call to [`decode`] runs it.

use unfold_am::AcousticScores;
use unfold_wfst::{Label, Semiring, StateId, TropicalWeight, EPSILON};

use crate::config::{DecodeConfig, DecodeResult, DecodeStats};
use crate::lattice::{Lattice, WordLattice, COMPACT_ENTRY_BYTES, LATTICE_ROOT};
use crate::olt::SoftOlt;
use crate::otf::{finish, finish_lattice, lm_walk, split, token_key};
use crate::scratch::{DecodeScratch, SessionScratch, WorkScratch};
use crate::search::{prune_threshold_store, Token, TokenLanes, TokenStore};
use crate::sources::{addr, AmSource, Fetch, LmSource};
use crate::trace::{DecodeStage, TraceSink};

/// Decodes `scores` with the scalar loop on a fresh [`DecodeScratch`].
/// With `record` set it returns what
/// [`crate::OtfDecoder::decode_lattice`] returns, and otherwise what
/// [`crate::OtfDecoder::decode`] returns beside an empty lattice; the
/// sink sees the events the product decode emits, apart from the
/// kernel-phase timers.
pub fn decode<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    scores: &AcousticScores,
    record: bool,
    sink: &mut dyn TraceSink,
) -> (DecodeResult, WordLattice) {
    let mut scratch = DecodeScratch::new();
    let mut worklist = Vec::new();
    let mut stats = DecodeStats::default();
    scratch.begin(config);
    let (session, work) = (&mut scratch.session, &mut scratch.work);
    session.lattice.set_recording(record);
    work.ensure_validated(am, lm, scores.num_pdfs());
    work.next.insert(
        token_key(am.start(), lm.start()),
        Token {
            cost: 0.0,
            lat: LATTICE_ROOT,
        },
    );
    epsilon_closure(
        config,
        am,
        lm,
        &mut work.next,
        &mut worklist,
        &mut work.eps_local,
        &mut work.probes,
        &mut work.olt,
        &mut session.bias_cache,
        &mut session.lattice,
        0,
        f32::INFINITY,
        sink,
        &mut stats,
    );
    std::mem::swap(&mut work.cur, &mut work.next);
    for t in 0..scores.num_frames() {
        expand_frame_legacy(
            config,
            am,
            lm,
            session,
            work,
            &mut worklist,
            scores.frame(t),
            t,
            sink,
            &mut stats,
        );
        std::mem::swap(&mut work.cur, &mut work.next);
    }
    if record {
        let beam = config.lattice_beam;
        finish_lattice(am, &work.cur, &session.lattice, stats, beam, sink)
    } else {
        let res = finish(am, &work.cur, &session.lattice, stats, sink);
        (res, WordLattice::empty())
    }
}

/// The scalar frame loop: per-token beam test inside the expansion
/// walk, `get`-then-`insert` relaxation. Expands the population in
/// `work.cur` and leaves the one built in `work.next`.
#[allow(clippy::too_many_arguments)]
fn expand_frame_legacy<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: &DecodeConfig,
    am: &A,
    lm: &L,
    session: &mut SessionScratch,
    work: &mut WorkScratch,
    worklist: &mut Vec<u64>,
    costs: &[f32],
    t: usize,
    sink: &mut dyn TraceSink,
    stats: &mut DecodeStats,
) {
    work.ensure_validated(am, lm, costs.len());
    let cur: &TokenLanes = &work.cur;
    session.lattice.advance_pop(cur.keys_slice());
    sink.frame_start(t, cur.len());
    stats.frames += 1;
    stats.max_active = stats.max_active.max(cur.len());
    stats.total_active += cur.len() as u64;

    sink.stage_enter(DecodeStage::Pruning);
    let thr = prune_threshold_store(
        cur.costs(),
        config.beam,
        config.max_active,
        &mut work.prune_costs,
    );
    sink.stage_switch(DecodeStage::Pruning, DecodeStage::ArcExpansion);
    work.next.clear();
    let mut next_best = f32::INFINITY;

    {
        let next = &mut work.next;
        let olt = &mut work.olt;
        let bias = &mut session.bias_cache;
        let probes = &mut work.probes;
        let lattice = &mut session.lattice;
        for (e, (k, tok)) in (0u32..).zip(cur.iter()) {
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
                let (dst, _) = relax(
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
            });
        }
    }

    epsilon_closure(
        config,
        am,
        lm,
        &mut work.next,
        worklist,
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
    for tok in work.next.values() {
        best = TropicalWeight::from_cost(tok.cost).plus(best);
        worst = if worst.is_finite() {
            worst.max(tok.cost)
        } else {
            tok.cost
        };
    }
    let best = best.value();
    sink.frame_end(t, work.next.len(), best, worst);
}

/// Relaxes non-emitting AM arcs (including cross-word transitions,
/// which trigger LM walks) to a fixed point. `worklist`, `eps_local`,
/// and `probes` are caller-owned buffers (cleared here) so the closure
/// allocates nothing in steady state.
#[allow(clippy::too_many_arguments)]
fn epsilon_closure<A: AmSource + ?Sized, L: LmSource + ?Sized>(
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
    lattice.start_closure();
    worklist.clear();
    worklist.extend(tokens.keys());
    let mut guard = 0u64;
    while let Some(k) = worklist.pop() {
        guard += 1;
        assert!(
            guard < 100_000_000,
            "epsilon closure diverged: negative cycle?"
        );
        let Some(e) = tokens.probe(k).entry() else {
            continue;
        };
        let (_, tok) = tokens.pair_at(e as usize);
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
            let (dst, improved) = relax(
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
                worklist.push(token_key(am_next, lm_next));
            }
        }
    }
}

/// Inserts/improves a token. Returns the destination's entry index,
/// improved or not, and whether the store changed: the improvement
/// test's probe names an existing entry, `TokenStore::insert` a new
/// one, so the tape costs no extra hash walk.
#[allow(clippy::too_many_arguments)]
fn relax(
    map: &mut TokenStore,
    k: u64,
    cost: f32,
    parent_lat: u32,
    word: Label,
    frame: u32,
    lattice: &mut Lattice,
    sink: &mut dyn TraceSink,
) -> (u32, bool) {
    if let Some(e) = map.probe(k).entry() {
        // Negated on purpose: the `cost < existing.cost` improvement
        // test, NaN behaviour included.
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
    (map.insert(k, Token { cost, lat }), true)
}
