//! Frame-synchronous streaming decode.
//!
//! The paper's overall system (§5.2) splits speech into N-frame batches:
//! the GPU scores batch *i+1* while the accelerator decodes batch *i*
//! through a shared buffer. That pipeline requires a decoder that
//! accepts score rows incrementally instead of a complete utterance.
//! This module provides it as [`StreamSession`]: it owns only the
//! per-utterance search state ([`SessionScratch`] + stats) and takes
//! the models **and a [`WorkScratch`]** as arguments on every call.
//! Between calls the session's live tokens are parked as bare lanes;
//! each push expands them into the worker's hashed store and parks the
//! survivors again, so a paused session costs about its live tokens.
//! This is the unit a multi-session scheduler juggles: many paused
//! sessions, a handful of worker-owned `WorkScratch`es, shared models.
//! A session may be advanced by *different* workers across its
//! lifetime — `WorkScratch` carries no search state across a frame
//! boundary, so decode output is independent of which worker ran which
//! quantum. A single-session caller keeps one `WorkScratch` beside the
//! session, so steady-state frame pushes allocate nothing.
//!
//! Pushing every frame of an utterance and finalizing produces
//! *bit-identical* results to [`crate::OtfDecoder::decode`] (tested
//! below), so the batched system loses no accuracy, exactly as the
//! paper asserts.

use crate::config::{DecodeConfig, DecodeResult, DecodeStats};
use crate::ingest::{AcousticScorer, FrameInput, ScoreError};
use crate::lattice::WordLattice;
use crate::otf;
use crate::scratch::{FrameSource, SessionScratch, WorkScratch};
use crate::sources::{AmSource, LmSource};
use crate::trace::TraceSink;

/// An in-progress streaming decode holding **only** its own search
/// state. Create with [`StreamSession::new`], seed the start token with
/// [`StreamSession::seed`], feed frames with
/// [`StreamSession::push_frame`], finish with
/// [`StreamSession::finalize`]. Every decoding call borrows the models
/// and a [`WorkScratch`]; the session itself borrows nothing, so it can
/// be parked in a session table and advanced by whichever worker is
/// free.
#[derive(Debug)]
pub struct StreamSession {
    config: DecodeConfig,
    state: SessionScratch,
    stats: DecodeStats,
    frame: usize,
    seeded: bool,
    record_lattice: bool,
}

impl StreamSession {
    /// A fresh, unseeded session.
    pub fn new(config: DecodeConfig) -> Self {
        StreamSession {
            config,
            state: SessionScratch::new(),
            stats: DecodeStats::default(),
            frame: 0,
            seeded: false,
            record_lattice: false,
        }
    }

    /// Arms expansion-tape recording so [`StreamSession::finalize_lattice`]
    /// can build the exact word lattice. Contents-neutral for the search
    /// itself — the decode stays bit-identical either way.
    ///
    /// # Panics
    /// Panics if the session was already seeded.
    pub fn enable_lattice(&mut self) {
        assert!(
            !self.seeded,
            "StreamSession::enable_lattice: call before seed()"
        );
        self.record_lattice = true;
    }

    /// Returns the session to the unseeded state [`StreamSession::new`]
    /// leaves, tape recording off, for the next utterance, keeping the
    /// parked lanes, the lattice and the tape blocks allocated: a caller
    /// that streams utterance after utterance through one session
    /// allocates nothing once the widest has warmed it.
    pub fn restart(&mut self) {
        self.stats = DecodeStats::default();
        self.frame = 0;
        self.seeded = false;
        self.record_lattice = false;
    }

    /// The beam configuration this session decodes under.
    pub fn config(&self) -> &DecodeConfig {
        &self.config
    }

    /// Whether [`StreamSession::seed`] has run.
    pub fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// Seeds the start token and runs the initial non-emitting closure.
    /// Must run (once) before the first frame push.
    ///
    /// # Panics
    /// Panics if the session was already seeded.
    pub fn seed<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &mut self,
        am: &A,
        lm: &L,
        work: &mut WorkScratch,
        sink: &mut dyn TraceSink,
    ) {
        assert!(!self.seeded, "StreamSession::seed: already seeded");
        self.seeded = true;
        // Only a composing LM ever probes the per-session memo.
        let bias_entries = if lm.has_memo_ctx() {
            self.config.bias_cache_entries
        } else {
            0
        };
        self.state.configure_bias_cache(bias_entries);
        self.state.begin();
        self.state.lattice.set_recording(self.record_lattice);
        otf::seed_closure(
            &self.config,
            am,
            lm,
            &mut self.state,
            work,
            sink,
            &mut self.stats,
        );
        self.state.live.park(&work.next);
    }

    /// Frames consumed so far.
    pub fn frames_pushed(&self) -> usize {
        self.frame
    }

    /// Live hypotheses right now.
    pub fn num_active(&self) -> usize {
        self.state.num_active()
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// Consumes one frame of acoustic costs (`costs[pdf - 1]`). The
    /// frame expands the parked population into `work`'s store, and the
    /// survivors are parked again: one lane copy of the live tokens.
    /// Streaming builds into one of the worker's two stores only.
    ///
    /// # Panics
    /// Panics if the session is unseeded, or if an AM arc's PDF id
    /// exceeds `costs.len()`.
    pub fn push_frame<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &mut self,
        am: &A,
        lm: &L,
        work: &mut WorkScratch,
        costs: &[f32],
        sink: &mut dyn TraceSink,
    ) {
        assert!(self.seeded, "StreamSession::push_frame: seed() first");
        otf::expand_frame(
            &self.config,
            am,
            lm,
            &mut self.state,
            work,
            FrameSource::Parked,
            costs,
            self.frame,
            sink,
            &mut self.stats,
        );
        self.state.live.park(&work.next);
        self.frame += 1;
    }

    /// Consumes one [`FrameInput`] — the unified ingest surface.
    /// `scorer` turns the frame into a score row (staged in `work`, so
    /// steady-state ingest allocates nothing); precomputed rows take
    /// the exact [`StreamSession::push_frame`] path and stay
    /// byte-for-byte compatible with it.
    ///
    /// # Errors
    /// [`ScoreError`] when the scorer refuses the frame; the session is
    /// unchanged (the frame was simply not consumed).
    ///
    /// # Panics
    /// Panics if the session is unseeded, or if an AM arc's PDF id
    /// exceeds the scorer's row width.
    pub fn ingest_frame<A: AmSource + ?Sized, L: LmSource + ?Sized>(
        &mut self,
        am: &A,
        lm: &L,
        scorer: &dyn AcousticScorer,
        work: &mut WorkScratch,
        frame: &FrameInput,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ScoreError> {
        assert!(self.seeded, "StreamSession::ingest_frame: seed() first");
        let mut row = std::mem::take(&mut work.score_row);
        let scored = scorer.score_into(frame, &mut row);
        if scored.is_ok() {
            self.push_frame(am, lm, work, &row, sink);
        }
        work.score_row = row;
        scored
    }

    /// The best word sequence decodable *right now* (a partial
    /// hypothesis — useful for live captioning style output). Returns
    /// an empty sequence when nothing is final yet.
    pub fn partial_result(&self) -> Vec<unfold_lm::WordId> {
        let mut best: Option<(f32, u32)> = None;
        for tok in self.state.live.values() {
            if best.is_none_or(|(c, _)| tok.cost < c) {
                best = Some((tok.cost, tok.lat));
            }
        }
        best.map_or_else(Vec::new, |(_, lat)| self.state.lattice.backtrace(lat))
    }

    /// The longest word prefix shared by **all** live hypotheses — the
    /// part of the transcript no amount of further audio can revise
    /// (every surviving path already agrees on it), so a serving layer
    /// can emit it as a non-flickering partial. Always a prefix of
    /// [`StreamSession::partial_result`]; empty when hypotheses still
    /// disagree from the first word (or nothing is live).
    pub fn partial_stable_prefix(&self) -> Vec<unfold_lm::WordId> {
        // Many tokens share a lattice node; dedup before backtracing.
        // The SoA store hands us the lattice lane as one contiguous
        // slice — no per-token iteration needed.
        let mut lats: Vec<u32> = self.state.live.lats().to_vec();
        lats.sort_unstable();
        lats.dedup();
        let mut it = lats.into_iter();
        let Some(first) = it.next() else {
            return Vec::new();
        };
        let mut prefix = self.state.lattice.backtrace(first);
        for lat in it {
            if prefix.is_empty() {
                break;
            }
            let words = self.state.lattice.backtrace(lat);
            let common = prefix
                .iter()
                .zip(&words)
                .take_while(|(a, b)| a == b)
                .count();
            prefix.truncate(common);
        }
        prefix
    }

    /// Finishes the decode and returns the result, emitting the final
    /// lattice-backtrace span to `sink`. Non-consuming so a session
    /// table can keep the entry alive until the client collects the
    /// result; pushing further frames after finalizing is allowed but
    /// pointless.
    pub fn finalize<A: AmSource + ?Sized>(&self, am: &A, sink: &mut dyn TraceSink) -> DecodeResult {
        otf::finish(am, &self.state.live, &self.state.lattice, self.stats, sink)
    }

    /// Finishes the decode and also builds the exact word lattice from
    /// the recorded expansion tape (pruned to
    /// [`DecodeConfig::lattice_beam`]). The [`DecodeResult`] is
    /// bit-identical to [`StreamSession::finalize`]; the build is a
    /// second [`crate::trace::DecodeStage::Lattice`] span on `sink`,
    /// after the backtrace's, as in [`crate::OtfDecoder::decode_lattice`].
    ///
    /// # Panics
    /// Panics unless [`StreamSession::enable_lattice`] armed recording
    /// before the session was seeded.
    pub fn finalize_lattice<A: AmSource + ?Sized>(
        &self,
        am: &A,
        sink: &mut dyn TraceSink,
    ) -> (DecodeResult, WordLattice) {
        assert!(
            self.record_lattice,
            "StreamSession::finalize_lattice: enable_lattice() before seed()"
        );
        otf::finish_lattice(
            am,
            &self.state.live,
            &self.state.lattice,
            self.stats,
            self.config.lattice_beam,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountingSink, NullSink};
    use crate::OtfDecoder;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::Wfst;

    fn setup() -> (Lexicon, Wfst, Wfst) {
        let lex = Lexicon::generate(50, 20, 6);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(3), 50, DiscountConfig::default());
        (lex, am.fst, lm_to_wfst(&model))
    }

    /// A session seeded through `sink`, with its own fresh scratch —
    /// the single-session setup a standalone decode uses.
    fn start(
        cfg: DecodeConfig,
        am: &Wfst,
        lm: &Wfst,
        sink: &mut dyn TraceSink,
    ) -> (StreamSession, WorkScratch) {
        let mut work = WorkScratch::new();
        work.begin(&cfg);
        let mut session = StreamSession::new(cfg);
        session.seed(am, lm, &mut work, sink);
        (session, work)
    }

    #[test]
    fn streaming_matches_batch_decode_exactly() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[3, 9, 17],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            5,
        );
        let cfg = DecodeConfig::default();
        let batch = OtfDecoder::new(cfg).decode(&am, &lm, &utt.scores, &mut NullSink);

        let (mut session, mut work) = start(cfg, &am, &lm, &mut NullSink);
        for t in 0..utt.scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, utt.scores.frame(t), &mut NullSink);
        }
        let streamed = session.finalize(&am, &mut NullSink);
        assert_eq!(batch.words, streamed.words);
        assert_eq!(batch.cost.to_bits(), streamed.cost.to_bits());
        assert_eq!(batch.stats, streamed.stats);
    }

    #[test]
    fn detached_session_matches_batch_decode_exactly() {
        // The scheduler-facing path: a parked session advanced with a
        // worker's WorkScratch that another session already warmed.
        // The scratch carries no search state, so the result — full
        // statistics included (the OLT is off) — is the batch decode's.
        let (lex, am, lm) = setup();
        let cfg = DecodeConfig::default();
        let noise = NoiseModel::default();
        let other = synthesize_utterance(&[7, 11], &lex, HmmTopology::Kaldi3State, &noise, 8);
        let utt = synthesize_utterance(&[3, 9, 17], &lex, HmmTopology::Kaldi3State, &noise, 5);
        let batch = OtfDecoder::new(cfg).decode(&am, &lm, &utt.scores, &mut NullSink);

        let (mut warmer, mut work) = start(cfg, &am, &lm, &mut NullSink);
        for t in 0..other.scores.num_frames() {
            warmer.push_frame(&am, &lm, &mut work, other.scores.frame(t), &mut NullSink);
        }
        let mut session = StreamSession::new(cfg);
        session.seed(&am, &lm, &mut work, &mut NullSink);
        for t in 0..utt.scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, utt.scores.frame(t), &mut NullSink);
        }
        let streamed = session.finalize(&am, &mut NullSink);
        assert_eq!(batch.words, streamed.words);
        assert_eq!(batch.cost.to_bits(), streamed.cost.to_bits());
        assert_eq!(batch.stats, streamed.stats);
    }

    #[test]
    fn interleaved_sessions_with_shared_work_scratch_stay_independent() {
        // Two sessions advanced alternately through ONE WorkScratch
        // (what a serve worker does) must each produce exactly what
        // they produce decoded alone. The shared OLT warms across both,
        // so only words/cost are pinned, not fetch statistics.
        let (lex, am, lm) = setup();
        let ua = synthesize_utterance(
            &[3, 9, 17],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            5,
        );
        let ub = synthesize_utterance(
            &[7, 11, 4],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            8,
        );
        let cfg = DecodeConfig::builder().olt_entries(512).build().unwrap();
        let dec = OtfDecoder::new(cfg);
        let alone_a = dec.decode(&am, &lm, &ua.scores, &mut NullSink);
        let alone_b = dec.decode(&am, &lm, &ub.scores, &mut NullSink);

        let mut work = WorkScratch::new();
        work.configure_olt(cfg.olt_entries);
        let mut sa = StreamSession::new(cfg);
        let mut sb = StreamSession::new(cfg);
        sa.seed(&am, &lm, &mut work, &mut NullSink);
        sb.seed(&am, &lm, &mut work, &mut NullSink);
        let frames = ua.scores.num_frames().max(ub.scores.num_frames());
        for t in 0..frames {
            if t < ua.scores.num_frames() {
                sa.push_frame(&am, &lm, &mut work, ua.scores.frame(t), &mut NullSink);
            }
            if t < ub.scores.num_frames() {
                sb.push_frame(&am, &lm, &mut work, ub.scores.frame(t), &mut NullSink);
            }
        }
        let ra = sa.finalize(&am, &mut NullSink);
        let rb = sb.finalize(&am, &mut NullSink);
        assert_eq!(ra.words, alone_a.words);
        assert_eq!(ra.cost.to_bits(), alone_a.cost.to_bits());
        assert_eq!(rb.words, alone_b.words);
        assert_eq!(rb.cost.to_bits(), alone_b.cost.to_bits());
    }

    /// Twenty flat score rows (every PDF equally likely) widen the
    /// population to thousands of tokens; clean frames then narrow it
    /// to tens again. After every push the parked lanes are within the parking
    /// bound of the live tokens, so the wide frames' capacity is given
    /// back instead of staying pinned for the rest of the session.
    #[test]
    fn parked_capacity_follows_the_live_tokens_after_a_wide_frame() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[3, 9, 17, 22, 5],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            5,
        );
        let flat = vec![0.0; utt.scores.frame(0).len()];
        let (mut session, mut work) = start(DecodeConfig::default(), &am, &lm, &mut NullSink);
        let (mut peak, mut after_peak) = (0, usize::MAX);
        for t in 0..utt.scores.num_frames() {
            let row = if (0..20).contains(&t) {
                &flat[..]
            } else {
                utt.scores.frame(t)
            };
            session.push_frame(&am, &lm, &mut work, row, &mut NullSink);
            let live = &session.state.live;
            assert!(
                live.within_park_bound(),
                "frame {t}: capacity {} for {} live tokens",
                live.capacity(),
                live.len()
            );
            if live.capacity() > peak {
                (peak, after_peak) = (live.capacity(), usize::MAX);
            } else {
                after_peak = after_peak.min(live.capacity());
            }
        }
        assert!(
            peak > 4 * 64,
            "the flat rows never widened the frame: {peak}"
        );
        assert!(
            after_peak * 4 <= peak,
            "capacity stayed near its peak: {after_peak} of {peak}"
        );
    }

    #[test]
    fn streaming_emits_the_same_trace() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[1, 2],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            9,
        );
        let cfg = DecodeConfig::default();
        let mut batch_sink = CountingSink::default();
        OtfDecoder::new(cfg).decode(&am, &lm, &utt.scores, &mut batch_sink);

        let mut stream_sink = CountingSink::default();
        let (mut session, mut work) = start(cfg, &am, &lm, &mut stream_sink);
        for t in 0..utt.scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, utt.scores.frame(t), &mut stream_sink);
        }
        let _ = session.finalize(&am, &mut stream_sink);
        assert_eq!(batch_sink.am_arc_fetches, stream_sink.am_arc_fetches);
        assert_eq!(batch_sink.lm_arc_fetches, stream_sink.lm_arc_fetches);
        assert_eq!(batch_sink.token_bytes, stream_sink.token_bytes);
    }

    /// The streamed lattice equals the one the scalar reference loop
    /// builds in one batch, and so does the trace of building it, on
    /// both topologies. The stream stores its tape in blocks of three
    /// records, so it files hundreds of blocks, every population's key
    /// lane crosses block boundaries, and the tape is pruned and
    /// compacted at least five times on the way; the reference uses the
    /// shipped block size.
    #[test]
    fn streamed_lattice_build_is_a_lattice_stage_span() {
        use crate::record::{TraceEvent, TraceRecorder};
        let (lex, kaldi, lm) = setup();
        let ctc = build_am(&lex, HmmTopology::Ctc).fst;
        for (topology, am) in [(HmmTopology::Kaldi3State, &kaldi), (HmmTopology::Ctc, &ctc)] {
            let utt = synthesize_utterance(&[1, 2], &lex, topology, &NoiseModel::clean(), 9);
            let what = format!("{topology:?}");
            let cfg = DecodeConfig::default();
            let mut batch_sink = TraceRecorder::new();
            let (want, batch) =
                crate::reference::decode(&cfg, am, &lm, &utt.scores, true, &mut batch_sink);

            let mut stream_sink = TraceRecorder::new();
            let mut work = WorkScratch::new();
            work.begin(&cfg);
            let mut session = StreamSession::new(cfg);
            session.state.lattice.set_block_len(3);
            session.enable_lattice();
            session.seed(am, &lm, &mut work, &mut stream_sink);
            for t in 0..utt.scores.num_frames() {
                session.push_frame(am, &lm, &mut work, utt.scores.frame(t), &mut stream_sink);
            }
            let (got, streamed) = session.finalize_lattice(am, &mut stream_sink);
            let (filed, prunes) = session.state.lattice.tape_churn();
            assert!(filed > 100, "{what}: the tape filed {filed} blocks");
            assert!(prunes >= 5, "{what}: the tape was pruned {prunes} times");
            assert!(
                !streamed.is_empty() && streamed.bit_identical(&batch),
                "{what}"
            );
            assert_eq!(got.words, want.words, "{what}: words");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}: cost bits");
            assert_eq!(got.stats, want.stats, "{what}: stats");

            // The stream ends backtrace span, then build span: a stage
            // clock bills the build to `lattice` exactly as in batch.
            let lattice = crate::trace::DecodeStage::Lattice;
            assert_eq!(
                stream_sink.events()[stream_sink.len() - 4..],
                [
                    TraceEvent::StageEnter(lattice),
                    TraceEvent::StageExit(lattice),
                    TraceEvent::StageEnter(lattice),
                    TraceEvent::StageExit(lattice),
                ]
            );
            assert_eq!(stream_sink.events(), batch_sink.events(), "{what}");
        }
    }

    /// What one session streaming `words` with the tape on, in blocks
    /// of 16 records, leaves: the tape's high-water mark in blocks, the
    /// blocks it filed, and the records it still holds per population
    /// over the first half of the utterance against those it taped per
    /// frame.
    fn taped_session(words: &[u32], topology: HmmTopology) -> (usize, usize, f64) {
        let (lex, kaldi, lm) = setup();
        let ctc = build_am(&lex, HmmTopology::Ctc).fst;
        let am = if topology == HmmTopology::Ctc {
            &ctc
        } else {
            &kaldi
        };
        let utt = synthesize_utterance(words, &lex, topology, &NoiseModel::default(), 21);
        let cfg = DecodeConfig::default();
        let mut work = WorkScratch::new();
        work.begin(&cfg);
        let mut session = StreamSession::new(cfg);
        session.state.lattice.set_block_len(16);
        session.enable_lattice();
        session.seed(am, &lm, &mut work, &mut NullSink);
        let mut high = 0;
        for t in 0..utt.scores.num_frames() {
            session.push_frame(am, &lm, &mut work, utt.scores.frame(t), &mut NullSink);
            high = high.max(session.state.lattice.tape_blocks_held());
        }
        let lattice = &session.state.lattice;
        let half = utt.scores.num_frames() / 2;
        let filed = lattice.tape_churn().0;
        let taped = (16 * filed) as f64 / utt.scores.num_frames() as f64;
        let band = lattice.records_before(half) as f64 / half as f64;
        (high, filed, band / taped)
    }

    /// A session four times as long holds a tape that grows by less than
    /// half of what it tapes: once a population is old, only the band of
    /// records that still reaches the frontier stays, under a third of
    /// what the search tapes a frame (~8 of ~31 records here on Kaldi,
    /// ~23 of ~256 on CTC). The band is every record into a token some
    /// live hypothesis descends from, so the tape still grows with the
    /// session, by the band. The backpointer arena (`Lattice::entries`)
    /// grows too, by an entry per word end.
    #[test]
    fn tape_high_water_grows_only_by_the_band_that_reaches_the_frontier() {
        let words: Vec<u32> = (0..20).map(|i| (i * 7 + 3) % 49 + 1).collect();
        for topology in [HmmTopology::Kaldi3State, HmmTopology::Ctc] {
            let (high_short, filed_short, _) = taped_session(&words[..5], topology);
            let (high_long, filed_long, kept) = taped_session(&words, topology);
            assert!(
                2 * (high_long - high_short) <= filed_long - filed_short,
                "{topology:?}: the high-water grew {high_short} -> {high_long} blocks \
                 while the tape filed {filed_short} -> {filed_long}"
            );
            assert!(
                3.0 * kept <= 1.0,
                "{topology:?}: old populations keep {kept:.2} of what is taped"
            );
        }
    }

    #[test]
    fn partial_results_grow_monotonically_on_clean_audio() {
        let (lex, am, lm) = setup();
        let truth = vec![7u32, 11, 4];
        let utt = synthesize_utterance(
            &truth,
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            2,
        );
        let (mut session, mut work) = start(DecodeConfig::default(), &am, &lm, &mut NullSink);
        let mut last_len = 0usize;
        let mut shrank = false;
        for t in 0..utt.scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, utt.scores.frame(t), &mut NullSink);
            let p = session.partial_result();
            if p.len() < last_len {
                shrank = true;
            }
            last_len = p.len();
        }
        let final_words = session.finalize(&am, &mut NullSink).words;
        assert_eq!(final_words, truth);
        // Partial results may fluctuate on ambiguous frames, but a clean
        // utterance should mostly grow; at minimum the final answer is
        // reached.
        assert!(!shrank || final_words == truth);
    }

    #[test]
    fn stable_prefix_is_a_prefix_of_the_partial_and_never_flickers_back() {
        let (lex, am, lm) = setup();
        let truth = vec![7u32, 11, 4, 22];
        let utt = synthesize_utterance(
            &truth,
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            12,
        );
        let (mut session, mut work) = start(DecodeConfig::default(), &am, &lm, &mut NullSink);
        let mut emitted: Vec<u32> = Vec::new();
        for t in 0..utt.scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, utt.scores.frame(t), &mut NullSink);
            let stable = session.partial_stable_prefix();
            let partial = session.partial_result();
            assert!(
                stable.len() <= partial.len() && partial[..stable.len()] == stable[..],
                "stable prefix {stable:?} must prefix the 1-best partial {partial:?}"
            );
            // A word every hypothesis agreed on stays agreed: the
            // emitted transcript only ever extends.
            let common = emitted
                .iter()
                .zip(&stable)
                .take_while(|(a, b)| a == b)
                .count();
            assert_eq!(
                common,
                emitted.len().min(stable.len()),
                "stable prefix revised an already-stable word: had {emitted:?}, now {stable:?}"
            );
            if stable.len() > emitted.len() {
                emitted = stable;
            }
        }
        let final_words = session.finalize(&am, &mut NullSink).words;
        assert!(
            emitted.len() <= final_words.len() && final_words[..emitted.len()] == emitted[..],
            "stable prefix {emitted:?} must prefix the final transcript {final_words:?}"
        );
    }

    #[test]
    fn stable_prefix_equals_partial_when_one_hypothesis_survives() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[5, 9],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            4,
        );
        // A very tight beam forces the population toward a single path.
        let cfg = DecodeConfig::builder()
            .beam(0.5)
            .max_active(1)
            .build()
            .unwrap();
        let (mut session, mut work) = start(cfg, &am, &lm, &mut NullSink);
        for t in 0..utt.scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, utt.scores.frame(t), &mut NullSink);
            if session.num_active() == 1 {
                assert_eq!(session.partial_stable_prefix(), session.partial_result());
            }
        }
    }

    /// The per-session bias memo is only ever probed through a
    /// composing LM, so a session on a plain LM allocates none, whatever
    /// `bias_cache_entries` says.
    #[test]
    fn plain_lm_session_allocates_no_bias_memo() {
        let (_lex, am, lm) = setup();
        let cfg = DecodeConfig::builder()
            .bias_cache_entries(256)
            .build()
            .unwrap();
        let (session, _work) = start(cfg, &am, &lm, &mut NullSink);
        assert_eq!(session.state.bias_cache.num_entries(), 0);
    }

    #[test]
    fn active_count_visible_between_pushes() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[5],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            1,
        );
        let (mut session, mut work) = start(DecodeConfig::default(), &am, &lm, &mut NullSink);
        assert!(session.num_active() >= 1);
        assert_eq!(session.frames_pushed(), 0);
        session.push_frame(&am, &lm, &mut work, utt.scores.frame(0), &mut NullSink);
        assert_eq!(session.frames_pushed(), 1);
        assert!(session.num_active() >= 1);
    }

    #[test]
    fn ingest_of_precomputed_rows_matches_push_frame_exactly() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[3, 9, 17],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            5,
        );
        let cfg = DecodeConfig::default();
        let batch = OtfDecoder::new(cfg).decode(&am, &lm, &utt.scores, &mut NullSink);

        // Through StreamSession::ingest_frame with a passthrough scorer.
        let width = utt.scores.frame(0).len();
        let scorer = crate::ingest::PrecomputedScorer::new(width);
        let (mut session, mut work) = start(cfg, &am, &lm, &mut NullSink);
        for t in 0..utt.scores.num_frames() {
            session
                .ingest_frame(
                    &am,
                    &lm,
                    &scorer,
                    &mut work,
                    &FrameInput::Scores(utt.scores.frame(t).to_vec()),
                    &mut NullSink,
                )
                .unwrap();
        }
        let ingested = session.finalize(&am, &mut NullSink);
        assert_eq!(batch.words, ingested.words);
        assert_eq!(batch.cost.to_bits(), ingested.cost.to_bits());
        assert_eq!(batch.stats, ingested.stats);
    }

    #[test]
    fn feature_frames_score_identically_to_precomputed_rows() {
        // Scoring features through a GmmScorer at ingest time must be
        // bit-identical to scoring them up front and pushing the rows.
        let (lex, am, lm) = setup();
        let topo_pdfs = HmmTopology::Kaldi3State.num_pdfs(lex.num_phonemes());
        let gmm = std::sync::Arc::new(unfold_am::GmmModel::synthesize(topo_pdfs, 8, 2, 2.0, 11));
        let scorer = crate::ingest::GmmScorer::new(gmm.clone());
        // Deterministic pseudo-feature frames (contents are irrelevant —
        // only that both paths see the same vectors).
        let feats: Vec<Vec<f32>> = (0..40)
            .map(|t| {
                (0..8)
                    .map(|d| ((t * 31 + d * 7) % 13) as f32 * 0.3 - 1.5)
                    .collect()
            })
            .collect();
        let cfg = DecodeConfig::default();

        let (mut by_rows, mut work) = start(cfg, &am, &lm, &mut NullSink);
        for f in &feats {
            by_rows.push_frame(&am, &lm, &mut work, &gmm.frame_costs(f), &mut NullSink);
        }
        let rows_result = by_rows.finalize(&am, &mut NullSink);

        let (mut by_feats, mut work) = start(cfg, &am, &lm, &mut NullSink);
        for f in &feats {
            by_feats
                .ingest_frame(
                    &am,
                    &lm,
                    &scorer,
                    &mut work,
                    &FrameInput::Features(f.clone()),
                    &mut NullSink,
                )
                .unwrap();
        }
        let feats_result = by_feats.finalize(&am, &mut NullSink);
        assert_eq!(rows_result.words, feats_result.words);
        assert_eq!(rows_result.cost.to_bits(), feats_result.cost.to_bits());
        assert_eq!(rows_result.stats, feats_result.stats);
    }

    #[test]
    fn ingest_refuses_features_without_a_scorer_and_leaves_state_unchanged() {
        // A passthrough scorer is "no acoustic frontend": it forwards
        // score rows and refuses feature frames.
        let (_lex, am, lm) = setup();
        let scorer = crate::ingest::PrecomputedScorer::new(4);
        let (mut session, mut work) = start(DecodeConfig::default(), &am, &lm, &mut NullSink);
        let state = |s: &StreamSession| (s.frames_pushed(), s.num_active(), *s.stats());
        let before = state(&session);
        assert_eq!(
            session.ingest_frame(
                &am,
                &lm,
                &scorer,
                &mut work,
                &FrameInput::Features(vec![0.0; 4]),
                &mut NullSink,
            ),
            Err(ScoreError::FeaturesUnsupported)
        );
        assert_eq!(state(&session), before);
    }

    #[test]
    #[should_panic(expected = "seed() first")]
    fn unseeded_push_panics() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[5],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            1,
        );
        let mut work = WorkScratch::new();
        let mut session = StreamSession::new(DecodeConfig::default());
        session.push_frame(&am, &lm, &mut work, utt.scores.frame(0), &mut NullSink);
    }
}
