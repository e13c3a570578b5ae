//! Golden digests of the AM arc-fetch stream. The `(addr, bytes)` of
//! every `am_arc_fetch` event, in order, is what the hardware simulator
//! (`unfold-sim`) replays against its caches, so a rewrite of how the
//! decoder stores or replays decoded arcs must reproduce it bit for bit.
//!
//! One digest and one count per task preset x utterance seed, on the
//! compressed models (sub-byte arc records, so the footprints are the
//! packed stream's). The batch path (`decode_with`), a `StreamSession`
//! and the scalar reference loop (`reference::decode`) must all produce
//! the pinned stream. The batch and streaming decoders each run over one
//! scratch per task that also serves a `NullSink` decode before every
//! observed one, so the stream is pinned across that switch as well. On
//! a mismatch the failure prints the whole table as computed, ready to
//! paste over `GOLDEN` — only do that for a change that is *meant* to
//! alter the fetch stream.

use unfold::{System, TaskSpec};
use unfold_am::AcousticScores;
use unfold_decoder::{
    reference, AmSource, DecodeConfig, DecodeScratch, LmSource, NullSink, OtfDecoder,
    StreamSession, TraceSink, WorkScratch,
};

const SEEDS: usize = 3;

/// `(task, utterance seed index, fetch count, fetch digest)`.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("tiny", 0, 5661, 0xfd922a9418a10d80),
    ("tiny", 1, 14278, 0x61806b49d6031e2b),
    ("tiny", 2, 3368, 0xf7ccc0dbb53c3cc2),
    ("Kaldi-TEDLIUM", 0, 31059, 0x6f9bc3dc61ce00d4),
    ("Kaldi-TEDLIUM", 1, 47669, 0x3aa829a9096c8534),
    ("Kaldi-TEDLIUM", 2, 48430, 0xc8065d988896de85),
    ("EESEN-TEDLIUM", 0, 387444, 0x70d05a9cb02e31b4),
    ("EESEN-TEDLIUM", 1, 327813, 0x1656566eeffbfe66),
    ("EESEN-TEDLIUM", 2, 173233, 0x3d686fcbbd47eae6),
];

/// FNV-1a over the ordered `(addr, bytes)` of every AM arc fetch.
struct FetchDigest {
    hash: u64,
    count: u64,
}

impl FetchDigest {
    fn new() -> Self {
        FetchDigest {
            hash: 0xCBF2_9CE4_8422_2325,
            count: 0,
        }
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn result(&self) -> (u64, u64) {
        (self.count, self.hash)
    }
}

impl TraceSink for FetchDigest {
    fn am_arc_fetch(&mut self, addr: u64, bytes: u32) {
        self.count += 1;
        self.mix(addr);
        self.mix(u64::from(bytes));
    }
}

/// The fetch stream of `scores` through a streaming session on `work`,
/// after a `NullSink` stream of the same utterance on the same scratch.
fn streamed<A, L>(
    cfg: DecodeConfig,
    am: &A,
    lm: &L,
    scores: &AcousticScores,
    work: &mut WorkScratch,
) -> (u64, u64)
where
    A: AmSource + ?Sized,
    L: LmSource + ?Sized,
{
    let mut digest = FetchDigest::new();
    for observed in [false, true] {
        let sink: &mut dyn TraceSink = if observed { &mut digest } else { &mut NullSink };
        work.begin(&cfg);
        let mut sess = StreamSession::new(cfg);
        sess.seed(am, lm, work, sink);
        for t in 0..scores.num_frames() {
            sess.push_frame(am, lm, work, scores.frame(t), sink);
        }
        let _ = sess.finalize(am, sink);
    }
    digest.result()
}

#[test]
fn arc_fetches_match_the_golden_digests() {
    let cfg = DecodeConfig::default();
    let dec = OtfDecoder::new(cfg);
    let mut actual: Vec<(&str, usize, u64, u64)> = Vec::new();
    for spec in [
        TaskSpec::tiny(),
        TaskSpec::tedlium_kaldi(),
        TaskSpec::tedlium_eesen(),
    ] {
        let system = System::build(&spec);
        let (am, lm) = (&system.am_comp, &system.lm_comp);
        let mut scratch = DecodeScratch::new();
        let mut work = WorkScratch::new();
        for (seed, utt) in system.test_utterances(SEEDS).iter().enumerate() {
            let what = format!("{} seed {seed}", spec.name);
            let _ = dec.decode_with(am, lm, &utt.scores, &mut scratch, &mut NullSink);
            let mut batch = FetchDigest::new();
            let r = dec.decode_with(am, lm, &utt.scores, &mut scratch, &mut batch);
            assert!(r.stats.frames > 0, "{what}: nothing decoded");
            let mut oracle = FetchDigest::new();
            let _ = reference::decode(&cfg, am, lm, &utt.scores, false, &mut oracle);
            assert_eq!(
                batch.result(),
                oracle.result(),
                "{what}: the batch decode's fetch stream differs from the reference loop's"
            );
            assert_eq!(
                streamed(cfg, am, lm, &utt.scores, &mut work),
                batch.result(),
                "{what}: the streaming fetch stream differs from the batch decode's"
            );
            let (count, hash) = batch.result();
            assert!(count > 0, "{what}: no arc fetched");
            actual.push((spec.name, seed, count, hash));
        }
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(name, seed, count, hash)| {
                format!("    ({name:?}, {seed}, {count}, {hash:#018x}),\n")
            })
            .collect();
        panic!("arc-fetch digests differ from GOLDEN; computed table:\n{table}");
    }
}
