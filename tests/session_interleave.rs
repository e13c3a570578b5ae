//! Paused sessions share nothing but models and a worker's scratch.
//!
//! A streaming session parks only its live tokens between frame
//! pushes; the hashed stores a frame expands into belong to the
//! `WorkScratch` a worker lends to whichever session it advances. These
//! tests pin what that ownership promises: sessions advanced
//! alternately, frame by frame, through one `WorkScratch` each decode
//! exactly what they decode alone — words, cost bits, `DecodeStats`,
//! the partials after every frame, and the word lattice, all equal to
//! the scalar reference loop's — and a decode that panics mid-frame
//! leaves the worker's stores fit for the next session. CI runs this file under `--release` as well, where the
//! kernel takes its shipped shape.

use std::panic::{catch_unwind, AssertUnwindSafe};

use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel, Utterance};
use unfold_decoder::{
    reference, DecodeConfig, DecodeResult, DecodeScratch, NullSink, OtfDecoder, StreamSession,
    TraceSink, WordLattice, WorkScratch,
};
use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
use unfold_wfst::Wfst;

const VOCAB: usize = 50;

fn lexicon() -> Lexicon {
    Lexicon::generate(VOCAB, 20, 6)
}

fn lm() -> Wfst {
    let spec = CorpusSpec {
        vocab_size: VOCAB,
        num_sentences: 300,
        ..Default::default()
    };
    lm_to_wfst(&NGramModel::train(
        &spec.generate(3),
        VOCAB,
        DiscountConfig::default(),
    ))
}

/// Three utterances of different lengths, so sessions drop out of the
/// rotation at different frames.
fn utterances(lex: &Lexicon, topology: HmmTopology) -> Vec<Utterance> {
    [
        (vec![3u32, 9, 17], 5u64),
        (vec![7, 11], 8),
        (vec![22, 4, 31, 6], 12),
    ]
    .into_iter()
    .map(|(words, seed)| synthesize_utterance(&words, lex, topology, &NoiseModel::default(), seed))
    .collect()
}

/// What one session produced: the partial and stable prefix after
/// every frame, the result, and the lattice when recording.
#[derive(Debug)]
struct Run {
    partials: Vec<(Vec<u32>, Vec<u32>)>,
    result: DecodeResult,
    lattice: Option<WordLattice>,
}

fn new_session(config: DecodeConfig, record: bool) -> StreamSession {
    let mut session = StreamSession::new(config);
    if record {
        session.enable_lattice();
    }
    session
}

fn finish(session: &StreamSession, am: &Wfst, record: bool) -> (DecodeResult, Option<WordLattice>) {
    if record {
        let (result, lattice) = session.finalize_lattice(am, &mut NullSink);
        (result, Some(lattice))
    } else {
        (session.finalize(am, &mut NullSink), None)
    }
}

/// `utt` streamed alone, on a worker scratch of its own.
fn alone(config: DecodeConfig, am: &Wfst, lm: &Wfst, utt: &Utterance, record: bool) -> Run {
    let mut work = WorkScratch::new();
    let mut session = new_session(config, record);
    session.seed(am, lm, &mut work, &mut NullSink);
    let mut partials = Vec::new();
    for t in 0..utt.scores.num_frames() {
        session.push_frame(am, lm, &mut work, utt.scores.frame(t), &mut NullSink);
        partials.push((session.partial_result(), session.partial_stable_prefix()));
    }
    let (result, lattice) = finish(&session, am, record);
    Run {
        partials,
        result,
        lattice,
    }
}

/// Every utterance streamed through ONE worker scratch, the sessions
/// taking turns one frame at a time.
fn interleaved(
    config: DecodeConfig,
    am: &Wfst,
    lm: &Wfst,
    utts: &[Utterance],
    record: bool,
) -> Vec<Run> {
    let mut work = WorkScratch::new();
    let mut sessions: Vec<StreamSession> =
        utts.iter().map(|_| new_session(config, record)).collect();
    for session in &mut sessions {
        session.seed(am, lm, &mut work, &mut NullSink);
    }
    let mut partials = vec![Vec::new(); utts.len()];
    let frames = utts.iter().map(|u| u.scores.num_frames()).max().unwrap();
    for t in 0..frames {
        for (i, (session, utt)) in sessions.iter_mut().zip(utts).enumerate() {
            if t < utt.scores.num_frames() {
                session.push_frame(am, lm, &mut work, utt.scores.frame(t), &mut NullSink);
                partials[i].push((session.partial_result(), session.partial_stable_prefix()));
            }
        }
    }
    sessions
        .iter()
        .zip(partials)
        .map(|(session, partials)| {
            let (result, lattice) = finish(session, am, record);
            Run {
                partials,
                result,
                lattice,
            }
        })
        .collect()
}

fn assert_same(got: &DecodeResult, want: &DecodeResult, what: &str) {
    assert_eq!(got.words, want.words, "{what}: words");
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}: cost bits");
    assert_eq!(got.stats, want.stats, "{what}: stats");
}

fn assert_same_lattice(got: &Option<WordLattice>, want: &Option<WordLattice>, what: &str) {
    match (got, want) {
        (Some(got), Some(want)) => assert!(got.bit_identical(want), "{what}: lattice"),
        (None, None) => {}
        _ => panic!("{what}: one side recorded a lattice"),
    }
}

/// The OLT is off (`olt_entries(0)`): a worker OLT shared across
/// sessions moves the OLT counters and `lm_fetches` by design, and
/// every other counter must match exactly.
#[test]
fn interleaved_sessions_match_their_standalone_decodes() {
    let lex = lexicon();
    let lm = lm();
    let config = DecodeConfig::builder().olt_entries(0).build().unwrap();
    for topology in [HmmTopology::Kaldi3State, HmmTopology::Ctc] {
        let am = build_am(&lex, topology).fst;
        let utts = utterances(&lex, topology);
        for record in [false, true] {
            let runs = interleaved(config, &am, &lm, &utts, record);
            for (i, (utt, got)) in utts.iter().zip(&runs).enumerate() {
                let what = format!("{topology:?} record={record} session {i}");
                let want = alone(config, &am, &lm, utt, record);
                assert!(want.result.is_complete(), "{what}: no complete hypothesis");
                assert_eq!(got.partials, want.partials, "{what}: partials");
                assert_same(&got.result, &want.result, &what);
                assert_same_lattice(&got.lattice, &want.lattice, &what);
                // And alone, streaming is the offline decode, and both
                // are the scalar reference loop's.
                let dec = OtfDecoder::new(config);
                let offline = if record {
                    let (offline, lattice) =
                        dec.decode_lattice(&am, &lm, &utt.scores, &mut NullSink);
                    assert_same_lattice(&Some(lattice), &want.lattice, &what);
                    offline
                } else {
                    dec.decode(&am, &lm, &utt.scores, &mut NullSink)
                };
                assert_same(&offline, &want.result, &format!("{what} offline"));
                let (oracle, lattice) =
                    reference::decode(&config, &am, &lm, &utt.scores, record, &mut NullSink);
                assert_same(&oracle, &want.result, &format!("{what} reference"));
                let lattice = record.then_some(lattice);
                assert_same_lattice(&lattice, &want.lattice, &format!("{what} reference"));
            }
        }
    }
}

/// Panics at the `at`-th token insert of frame `frame`: mid-expansion,
/// with the worker's store half built.
struct PanicMidFrame {
    frame: usize,
    at: usize,
    current: usize,
    inserts: usize,
}

impl PanicMidFrame {
    fn new(frame: usize, at: usize) -> Self {
        PanicMidFrame {
            frame,
            at,
            current: 0,
            inserts: 0,
        }
    }
}

impl TraceSink for PanicMidFrame {
    fn frame_start(&mut self, frame: usize, _active: usize) {
        self.current = frame;
        self.inserts = 0;
    }

    fn hash_insert(&mut self, _key: u64) {
        if self.current == self.frame {
            self.inserts += 1;
            assert!(self.inserts < self.at, "sink panics mid-expansion");
        }
    }
}

#[test]
fn a_decode_that_panics_mid_frame_leaves_the_worker_reusable() {
    let lex = lexicon();
    let lm = lm();
    let config = DecodeConfig::default();
    for topology in [HmmTopology::Kaldi3State, HmmTopology::Ctc] {
        let am = build_am(&lex, topology).fst;
        let utts = utterances(&lex, topology);
        let (doomed, healthy) = (&utts[2], &utts[0]);
        let what = format!("{topology:?}");

        // Streaming: a session panics on the worker's scratch; the
        // next session on it decodes as on a fresh one.
        let mut work = WorkScratch::new();
        work.begin(&config);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut sink = PanicMidFrame::new(10, 3);
            let mut session = new_session(config, true);
            session.seed(&am, &lm, &mut work, &mut sink);
            for t in 0..doomed.scores.num_frames() {
                session.push_frame(&am, &lm, &mut work, doomed.scores.frame(t), &mut sink);
            }
        }));
        assert!(panicked.is_err(), "{what}: the sink never panicked");
        work.begin(&config);
        let mut session = new_session(config, true);
        session.seed(&am, &lm, &mut work, &mut NullSink);
        let mut partials = Vec::new();
        for t in 0..healthy.scores.num_frames() {
            session.push_frame(&am, &lm, &mut work, healthy.scores.frame(t), &mut NullSink);
            partials.push((session.partial_result(), session.partial_stable_prefix()));
        }
        let (result, lattice) = finish(&session, &am, true);
        let want = alone(config, &am, &lm, healthy, true);
        assert_eq!(partials, want.partials, "{what}: stream partials");
        assert_same(&result, &want.result, &format!("{what} stream"));
        assert_same_lattice(&lattice, &want.lattice, &format!("{what} stream"));

        // Offline: the same through a `DecodeScratch`.
        let dec = OtfDecoder::new(config);
        let mut scratch = DecodeScratch::new();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            dec.decode_lattice_with(
                &am,
                &lm,
                &doomed.scores,
                &mut scratch,
                &mut PanicMidFrame::new(10, 3),
            )
        }));
        assert!(panicked.is_err(), "{what}: the offline sink never panicked");
        let (got, got_lattice) =
            dec.decode_lattice_with(&am, &lm, &healthy.scores, &mut scratch, &mut NullSink);
        let (fresh, fresh_lattice) = dec.decode_lattice(&am, &lm, &healthy.scores, &mut NullSink);
        assert_same(&got, &fresh, &format!("{what} offline"));
        assert!(
            got_lattice.bit_identical(&fresh_lattice),
            "{what} offline: lattice"
        );
        let (oracle, oracle_lattice) =
            reference::decode(&config, &am, &lm, &healthy.scores, true, &mut NullSink);
        assert_same(&oracle, &fresh, &format!("{what} reference"));
        assert!(
            oracle_lattice.bit_identical(&fresh_lattice),
            "{what} reference: lattice"
        );
    }
}
