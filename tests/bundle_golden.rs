//! Golden digests of the packed `.unfb` bytes and of decodes through
//! every model origin. The decode digests were pinned from the parent
//! of the single-codec rewrite (an owned codec beside a zero-copy codec
//! for bundle views); the bundle digests were re-pinned when bundle
//! version 2 narrowed the state records to the paper's 8 bytes, with
//! every decode digest unchanged. Any rewrite of the compressed
//! formats' storage, parsers or readers must reproduce every bit: the
//! bundle bytes, and for each utterance the words, cost bits,
//! `DecodeStats` and the ordered trace-event stream (every fetch
//! address, probe and OLT event).
//!
//! Each decode runs through three origins — the in-memory system
//! (`Models::from_system`), the bundle read into memory
//! (`Models::open`) and the mapped bundle (`Models::open_mmap`) —
//! which must agree with each other
//! before the digest is compared. On a mismatch the failure prints the
//! whole table as computed, ready to paste over `GOLDEN`: only do that
//! for a change that is *meant* to alter the formats or the search.

use std::fmt::Write as _;

use unfold::{pack_system, Models, System, TaskSpec};
use unfold_decoder::{DecodeConfig, OtfDecoder, TraceRecorder};

const UTTS: usize = 3;

/// `(task, bundle digest, per-utterance decode digests)`.
const GOLDEN: &[(&str, u64, [u64; UTTS])] = &[
    (
        "Kaldi-TEDLIUM",
        0x147471ae3a5fb210,
        [0x2317a794db7eee3e, 0x84fdfa5a2ee7b305, 0x4ef0204a84a22301],
    ),
    (
        "Kaldi-Librispeech",
        0xa77e1fa352f1ddbc,
        [0xfe3013a3bcfd5c9a, 0x52819d1af4f2c66c, 0x3e9518c9b6851719],
    ),
    (
        "Kaldi-Voxforge",
        0x6e7f932bd21f787e,
        [0x18b7e70a337d70f2, 0x95ba2bd4230bc843, 0xeb585f18f1b15ccf],
    ),
    (
        "EESEN-TEDLIUM",
        0x88809945121b6e0b,
        [0x47d098044efdcd37, 0x2b9a2b1032acd136, 0xaf15e0f02fdbbe7a],
    ),
    (
        "tiny",
        0xea001f0cf72c5be0,
        [0xd4955fca4adc8efc, 0xe6ae963e6b692a94, 0x1391601aa9d8efda],
    ),
];

/// FNV-1a over bytes; `fmt::Write` so events hash without allocating.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of one decode: words, cost bits, every `DecodeStats` field
/// and the ordered trace-event stream (`Debug` prints every field, and
/// `f32`s round-trip exactly).
fn decode_digest(models: &Models, scores: &unfold_am::AcousticScores) -> u64 {
    let mut rec = TraceRecorder::new();
    let res = OtfDecoder::new(DecodeConfig::default()).decode(
        models.am(),
        models.default_lm(),
        scores,
        &mut rec,
    );
    let mut h = Fnv::new();
    let _ = write!(
        h,
        "{:?}|{:#x}|{:?}",
        res.words,
        res.cost.to_bits(),
        res.stats
    );
    for e in rec.events() {
        let _ = write!(h, "{e:?};");
    }
    h.0
}

#[test]
fn bundles_and_decodes_match_the_golden_digests() {
    let mut presets = TaskSpec::all_paper_tasks();
    presets.push(TaskSpec::tiny());
    let dir = std::env::temp_dir().join(format!("unfold-bundle-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut actual: Vec<(String, u64, [u64; UTTS])> = Vec::new();
    for spec in presets {
        let system = System::build(&spec);
        let bytes = pack_system(&system, &[1]).expect("a built system packs");
        let mut h = Fnv::new();
        h.bytes(&bytes);
        let bundle_digest = h.0;

        let bundle_path = dir.join("m.unfb");
        std::fs::write(&bundle_path, &bytes).unwrap();
        let origins = [
            ("system", Models::from_system(&system)),
            ("owned bundle", Models::open(&bundle_path).unwrap()),
            ("mmap bundle", Models::open_mmap(&bundle_path).unwrap()),
        ];

        let mut decodes = [0u64; UTTS];
        for (i, utt) in system.test_utterances(UTTS).iter().enumerate() {
            let want = decode_digest(&origins[0].1, &utt.scores);
            for (name, models) in &origins[1..] {
                assert_eq!(
                    decode_digest(models, &utt.scores),
                    want,
                    "{} utt {i}: {name} decode differs from the system's",
                    spec.name
                );
            }
            decodes[i] = want;
        }
        actual.push((spec.name.to_string(), bundle_digest, decodes));
    }
    std::fs::remove_dir_all(&dir).ok();

    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    if !matches {
        let mut table = String::new();
        for (name, b, d) in &actual {
            let _ = writeln!(
                table,
                "    ({name:?}, {b:#018x}, [{:#018x}, {:#018x}, {:#018x}]),",
                d[0], d[1], d[2]
            );
        }
        panic!("bundle/decode digests differ from GOLDEN; computed table:\n{table}");
    }
}
