//! Steady-state decoding allocates nothing. A counting global allocator
//! sums, per thread, the bytes requested while a warm decoder runs:
//!
//! - a warm `OtfDecoder::decode_with` allocates only its result, the
//!   word and frame lanes of the `DecodeResult` it returns. That holds
//!   over `NullSink`, whose decodes stage arcs without their fetch
//!   footprints, and over an observing sink once the scratch has
//!   switched to staging them and is warm again;
//! - a warm `StreamSession` seed plus `push_frame` loop allocates
//!   nothing for the expansion tape, which is pruned on the way. What
//!   it does allocate is the parked lanes (`TokenLanes::park`): they
//!   give capacity back after a wide frame and regrow when the frontier
//!   widens again, by design, within a bound the test states.
//!
//! Warm means after one pass over the widest utterance: an utterance
//! that opens with flat score rows (every PDF equally likely), which
//! widen the frontier to thousands of tokens and tape several MiB.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use unfold_am::{build_am, synthesize_utterance, AcousticScores, HmmTopology, Lexicon, NoiseModel};
use unfold_decoder::{
    CountingSink, DecodeConfig, DecodeScratch, NullSink, OtfDecoder, StreamSession, TraceSink,
    WorkScratch,
};
use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
use unfold_wfst::Wfst;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: forwards to the system allocator, only counting sizes on the
// way (the default `realloc` goes through `alloc`, so growth counts).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread allocated while `f` ran, plus its result.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// A Kaldi-topology task on a 50-word vocabulary and three utterances:
/// the widest first, then two ordinary ones.
fn task() -> (Wfst, Wfst, Vec<AcousticScores>) {
    let lex = Lexicon::generate(50, 20, 6);
    let am = build_am(&lex, HmmTopology::Kaldi3State).fst;
    let spec = CorpusSpec {
        vocab_size: 50,
        num_sentences: 300,
        ..Default::default()
    };
    let lm = lm_to_wfst(&NGramModel::train(
        &spec.generate(3),
        50,
        DiscountConfig::default(),
    ));
    let noise = NoiseModel::default();
    let utt = |words: &[u32], seed| {
        synthesize_utterance(words, &lex, HmmTopology::Kaldi3State, &noise, seed).scores
    };
    let long = utt(&[3, 9, 17, 22, 5, 41, 8, 30], 5);
    let pdfs = long.num_pdfs();
    let rows: Vec<f32> = (0..long.num_frames())
        .flat_map(|t| {
            let row = long.frame(t);
            (0..pdfs).map(move |p| if t < 40 { 0.0 } else { row[p] })
        })
        .collect();
    let widest = AcousticScores::from_flat(rows, pdfs);
    (am, lm, vec![widest, utt(&[7, 11, 4], 8), utt(&[1, 2], 9)])
}

#[test]
fn a_warm_decode_allocates_only_its_result() {
    let (am, lm, utts) = task();
    let dec = OtfDecoder::new(DecodeConfig::default());
    let mut scratch = DecodeScratch::new();
    dec.decode_with(&am, &lm, &utts[0], &mut scratch, &mut NullSink);
    for (i, scores) in utts.iter().enumerate() {
        let (bytes, result) =
            allocated_during(|| dec.decode_with(&am, &lm, scores, &mut scratch, &mut NullSink));
        assert!(result.is_complete(), "utterance {i} decoded nothing");
        let lanes = 4 * (result.words.len() + result.word_frames.len());
        assert_eq!(
            bytes, lanes,
            "utterance {i}: {bytes} bytes allocated, {lanes} of them the result's lanes"
        );
    }
}

/// Warms one scratch over `NullSink`, then over a `CountingSink`,
/// which switches the arc stage to staging fetch footprints and
/// restages what it visits, then checks that warm decodes over either
/// sink allocate only their result lanes: the footprint lane grows no
/// more once warm.
#[test]
fn after_the_switch_to_footprints_a_warm_observed_decode_allocates_only_its_result() {
    let (am, lm, utts) = task();
    let dec = OtfDecoder::new(DecodeConfig::default());
    let mut scratch = DecodeScratch::new();
    dec.decode_with(&am, &lm, &utts[0], &mut scratch, &mut NullSink);
    dec.decode_with(
        &am,
        &lm,
        &utts[0],
        &mut scratch,
        &mut CountingSink::default(),
    );
    for (i, scores) in utts.iter().enumerate() {
        for observed in [true, false] {
            let mut counting = CountingSink::default();
            let sink: &mut dyn TraceSink = if observed {
                &mut counting
            } else {
                &mut NullSink
            };
            let (bytes, result) =
                allocated_during(|| dec.decode_with(&am, &lm, scores, &mut scratch, sink));
            assert!(result.is_complete(), "utterance {i} decoded nothing");
            assert_eq!(
                counting.am_arc_fetches > 0,
                observed,
                "utterance {i}: observed {observed}"
            );
            let lanes = 4 * (result.words.len() + result.word_frames.len());
            assert_eq!(
                bytes, lanes,
                "utterance {i}, observed {observed}: {bytes} bytes allocated, \
                 {lanes} of them the result's lanes"
            );
        }
    }
}

#[test]
fn a_warm_session_streams_with_the_tape_on_and_the_tape_allocates_nothing() {
    let (am, lm, utts) = task();
    let cfg = DecodeConfig::default();
    let mut work = WorkScratch::new();
    work.begin(&cfg);
    let mut session = StreamSession::new(cfg);
    let mut stream = |session: &mut StreamSession, scores: &AcousticScores, taped: bool| {
        session.restart();
        if taped {
            session.enable_lattice();
        }
        session.seed(&am, &lm, &mut work, &mut NullSink);
        for t in 0..scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, scores.frame(t), &mut NullSink);
        }
    };
    stream(&mut session, &utts[0], true);
    // The tape holds a record per token created at least; a prune runs
    // at a frame boundary once it passes 1 MiB, 65 536 records. Past
    // twice that, the widest utterance prunes on the way.
    assert!(
        session.stats().tokens_created > 2 * 65_536,
        "the widest utterance tapes too little to prune: {} tokens",
        session.stats().tokens_created
    );
    for (i, scores) in utts.iter().enumerate() {
        let (untaped, ()) = allocated_during(|| stream(&mut session, scores, false));
        let (taped, ()) = allocated_during(|| stream(&mut session, scores, true));
        assert_eq!(
            taped, untaped,
            "utterance {i}: {taped} bytes allocated with the tape on, {untaped} with it off"
        );
        // The parked lanes: 16 bytes a token, doubling up to the widest
        // frame and halving back after it, at most 8 x 16 bytes a token
        // of the widest frame over one wide excursion.
        let bound = 8 * 16 * session.stats().max_active.max(64);
        assert!(
            untaped <= bound,
            "utterance {i}: the parked lanes allocated {untaped} bytes, over {bound}"
        );
    }
}
