//! Golden digests of the word lattice, pinned from the builder that
//! interned and sorted the whole expansion tape. Any rewrite of
//! `WordLattice::build` must reproduce every lattice bit for bit:
//! structure, tropical scores, log-semiring scores and posteriors.
//!
//! Two digests per task preset x utterance seed x lattice beam: one
//! over the lattice, which the batch (`decode_lattice`) and streaming
//! (`finalize_lattice`) paths must both hash to, and one over what the
//! best-first enumeration returns from it (`nbest(5)` and
//! `best_path_detail`). On a mismatch the failure prints the whole
//! table as computed, ready to paste over `GOLDEN` — only do that for
//! a change that is *meant* to alter lattices.
//!
//! A second table, `DEGENERATE`, pins the inputs at the edges of the
//! tape, on one Kaldi and one CTC task: zero, one, two and three
//! frames, where the first and last token populations are the same or
//! neighbours, and the whole utterance under `max_active(1)`.

use unfold::{System, TaskSpec};
use unfold_am::AcousticScores;
use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder, StreamSession, WordLattice, WorkScratch};

const SEEDS: usize = 3;
const BEAMS: [f32; 2] = [2.0, 8.0];

/// `(task, utterance seed index, lattice beam, lattice digest, paths
/// digest)`.
const GOLDEN: &[(&str, usize, f32, u64, u64)] = &[
    (
        "Kaldi-TEDLIUM",
        0,
        2.0,
        0xe12c57af6d2d8331,
        0x5df1e9de483ed89a,
    ),
    (
        "Kaldi-TEDLIUM",
        0,
        8.0,
        0x2d4b760eed9fd280,
        0x2290ab9281aed944,
    ),
    (
        "Kaldi-TEDLIUM",
        1,
        2.0,
        0x774b4995f96421f9,
        0x0aa3a7a6a6d93cc3,
    ),
    (
        "Kaldi-TEDLIUM",
        1,
        8.0,
        0x98f0950f3df93c68,
        0x36d18a77265d4440,
    ),
    (
        "Kaldi-TEDLIUM",
        2,
        2.0,
        0xc3e30f1522db55bd,
        0xaddfc0251f2594d4,
    ),
    (
        "Kaldi-TEDLIUM",
        2,
        8.0,
        0xf6940db290fb8337,
        0x16a07fafbf2e013f,
    ),
    (
        "Kaldi-Librispeech",
        0,
        2.0,
        0x97e28991a7a7d1a0,
        0xf8a3448cd87c2672,
    ),
    (
        "Kaldi-Librispeech",
        0,
        8.0,
        0x652d6d093732153e,
        0x13232ec4c7d40323,
    ),
    (
        "Kaldi-Librispeech",
        1,
        2.0,
        0xb851fc9fa9e30c80,
        0xb00f50cadedfaef4,
    ),
    (
        "Kaldi-Librispeech",
        1,
        8.0,
        0xd1bd54578da5e202,
        0x14bbbfdeea9fb972,
    ),
    (
        "Kaldi-Librispeech",
        2,
        2.0,
        0x1f1df25f4bca9461,
        0x4f8108563e24ab94,
    ),
    (
        "Kaldi-Librispeech",
        2,
        8.0,
        0x4cebc6809fddd1cb,
        0xfeddcd409ebc1352,
    ),
    (
        "Kaldi-Voxforge",
        0,
        2.0,
        0xd50bd7db39b9c94c,
        0x9a0d86b36892e241,
    ),
    (
        "Kaldi-Voxforge",
        0,
        8.0,
        0x5dc4b1bf2d08d365,
        0x563e226cbc5636e2,
    ),
    (
        "Kaldi-Voxforge",
        1,
        2.0,
        0xb9d277ce8518d029,
        0xb734d67b1990116c,
    ),
    (
        "Kaldi-Voxforge",
        1,
        8.0,
        0xe8cd5277120a2365,
        0x72eedc7121c233f6,
    ),
    (
        "Kaldi-Voxforge",
        2,
        2.0,
        0x853ef127d8b92dbe,
        0x01fef48a5825eef5,
    ),
    (
        "Kaldi-Voxforge",
        2,
        8.0,
        0x98a090e04ace5098,
        0x172b7126c0619f96,
    ),
    (
        "EESEN-TEDLIUM",
        0,
        2.0,
        0xc4cb2f5ce3190827,
        0x4cad434a5262e22f,
    ),
    (
        "EESEN-TEDLIUM",
        0,
        8.0,
        0x06357c2d6243dbf2,
        0xd7a5800446eccc69,
    ),
    (
        "EESEN-TEDLIUM",
        1,
        2.0,
        0xfc40d2347b708e64,
        0x173e05d0819c72ac,
    ),
    (
        "EESEN-TEDLIUM",
        1,
        8.0,
        0xd0fcceec5235e642,
        0xc8044d778f901ac0,
    ),
    (
        "EESEN-TEDLIUM",
        2,
        2.0,
        0xb18470b6ade9d5ba,
        0x4fef8f51eedfcaa5,
    ),
    (
        "EESEN-TEDLIUM",
        2,
        8.0,
        0xc8a7e1469905c12c,
        0x2b355508062d90d8,
    ),
    ("tiny", 0, 2.0, 0xd7951c8957cffaad, 0x3fd1a2e53d131430),
    ("tiny", 0, 8.0, 0xc07b726841c22b5d, 0x057af05eca465ede),
    ("tiny", 1, 2.0, 0xced9d6edebf2d798, 0x8272c20988c72d46),
    ("tiny", 1, 8.0, 0x88c9d0e41b170e52, 0xc7c9d4c0e49d0e0f),
    ("tiny", 2, 2.0, 0x95c918fdd22bda30, 0xd212c77ac813ea52),
    ("tiny", 2, 8.0, 0x7047cf5f84b62da8, 0xda00faa790341cb9),
];

/// The tasks the degenerate inputs run on: one per HMM topology.
const DEGENERATE_TASKS: [&str; 2] = ["tiny", "EESEN-TEDLIUM"];

/// `(task, input, lattice digest, paths digest)` for the degenerate
/// inputs, all from utterance seed 0 at lattice beam 8. The zero-frame
/// lattice is the start token alone, final at cost 0; on the Kaldi
/// task one to three frames reach no final state (empty lattices).
const DEGENERATE: &[(&str, &str, u64, u64)] = &[
    (
        "EESEN-TEDLIUM",
        "0 frames",
        0x7cd230add1ec9ba5,
        0x88201fb960ff6465,
    ),
    (
        "EESEN-TEDLIUM",
        "1 frame",
        0xc322552de01127a6,
        0xd75e43547f577f69,
    ),
    (
        "EESEN-TEDLIUM",
        "2 frames",
        0x583c0e877688f79a,
        0x7e0d834c28e89d5e,
    ),
    (
        "EESEN-TEDLIUM",
        "3 frames",
        0xc1e4daf17438f5eb,
        0xa1941d2151152c01,
    ),
    (
        "EESEN-TEDLIUM",
        "max_active 1",
        0x538950e78f1a2e21,
        0x199e49f1995b709d,
    ),
    ("tiny", "0 frames", 0x7cd230add1ec9ba5, 0x88201fb960ff6465),
    ("tiny", "1 frame", 0x72a05cf8c60a8798, 0xcbf29ce484222325),
    ("tiny", "2 frames", 0x72a05cf8c60a8798, 0xcbf29ce484222325),
    ("tiny", "3 frames", 0x72a05cf8c60a8798, 0xcbf29ce484222325),
    (
        "tiny",
        "max_active 1",
        0x30101a006ef90427,
        0x313855cca82a3fad,
    ),
];

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of `nbest(5)` (sequences, order, cost bits) and
/// `best_path_detail` (words, frames, confidence bits).
fn paths_digest(lat: &WordLattice) -> u64 {
    let mut h = Fnv::new();
    if lat.is_empty() {
        return h.0;
    }
    for (words, cost) in lat.nbest(5) {
        h.mix(words.len() as u64);
        for w in words {
            h.mix(u64::from(w));
        }
        h.mix(u64::from(cost.to_bits()));
    }
    for hyp in lat.best_path_detail() {
        h.mix(u64::from(hyp.word));
        h.mix(u64::from(hyp.frame));
        h.mix(u64::from(hyp.confidence.to_bits()));
    }
    h.0
}

/// Digest of every field `WordLattice::bit_identical` compares.
fn digest(lat: &WordLattice) -> u64 {
    let mut h = Fnv::new();
    h.mix(u64::from(lat.start()));
    h.mix(u64::from(lat.num_frames()));
    h.mix(u64::from(lat.best_cost().to_bits()));
    h.mix(lat.num_nodes() as u64);
    h.mix(lat.num_arcs() as u64);
    h.mix(lat.finals().len() as u64);
    for n in lat.nodes() {
        h.mix(u64::from(n.frame));
        h.mix(n.key);
        h.mix(u64::from(n.forward.to_bits()));
        h.mix(u64::from(n.backward.to_bits()));
        h.mix(u64::from(n.log_forward.to_bits()));
        h.mix(u64::from(n.log_backward.to_bits()));
    }
    for a in lat.arcs() {
        h.mix(u64::from(a.from));
        h.mix(u64::from(a.to));
        h.mix(u64::from(a.word));
        h.mix(u64::from(a.weight.to_bits()));
        h.mix(u64::from(a.posterior.to_bits()));
    }
    for &(d, fw) in lat.finals() {
        h.mix(u64::from(d));
        h.mix(u64::from(fw.to_bits()));
    }
    h.0
}

/// The first `frames` frames of `scores`.
fn first_frames(scores: &AcousticScores, frames: usize) -> AcousticScores {
    let flat = (0..frames)
        .flat_map(|t| scores.frame(t).iter().copied())
        .collect();
    AcousticScores::from_flat(flat, scores.num_pdfs())
}

/// The lattice of `scores` built through `decode_lattice` and through
/// a streaming session; the two must be bit-identical.
fn batch_and_streamed<A, L>(
    cfg: DecodeConfig,
    am: &A,
    lm: &L,
    scores: &AcousticScores,
    what: &str,
) -> WordLattice
where
    A: unfold_decoder::AmSource + ?Sized,
    L: unfold_decoder::LmSource + ?Sized,
{
    let (_, batch) = OtfDecoder::new(cfg).decode_lattice(am, lm, scores, &mut NullSink);

    let mut work = WorkScratch::new();
    work.begin(&cfg);
    let mut sess = StreamSession::new(cfg);
    sess.enable_lattice();
    sess.seed(am, lm, &mut work, &mut NullSink);
    for t in 0..scores.num_frames() {
        sess.push_frame(am, lm, &mut work, scores.frame(t), &mut NullSink);
    }
    let (_, streamed) = sess.finalize_lattice(am, &mut NullSink);

    assert_eq!(
        digest(&batch),
        digest(&streamed),
        "{what}: batch and streaming lattices differ"
    );
    assert!(batch.bit_identical(&streamed), "{what}");
    batch
}

/// Panics with the computed table, ready to paste, unless `actual`
/// equals `golden`.
fn assert_table<T: PartialEq + std::fmt::Debug>(
    name: &str,
    actual: &[T],
    golden: &[T],
    row: impl Fn(&T) -> String,
) {
    if actual != golden {
        let table: String = actual
            .iter()
            .map(|r| format!("    {},\n", row(r)))
            .collect();
        panic!("lattice digests differ from {name}; computed table:\n{table}");
    }
}

#[test]
fn lattices_match_the_golden_digests() {
    let mut presets = TaskSpec::all_paper_tasks();
    presets.push(TaskSpec::tiny());
    let mut actual: Vec<(&str, usize, f32, u64, u64)> = Vec::new();
    let mut degenerate: Vec<(&str, &str, u64, u64)> = Vec::new();
    let mut nonempty = 0usize;
    for spec in presets {
        let system = System::build(&spec);
        let (am, lm) = (&system.am.fst, &system.lm_fst);
        let utts = system.test_utterances(SEEDS);
        for (seed, utt) in utts.iter().enumerate() {
            for beam in BEAMS {
                let cfg = DecodeConfig::builder()
                    .lattice_beam(beam)
                    .build()
                    .expect("valid lattice beam");
                let what = format!("{} seed {seed} beam {beam}", spec.name);
                let batch = batch_and_streamed(cfg, am, lm, &utt.scores, &what);
                nonempty += usize::from(!batch.is_empty());
                actual.push((spec.name, seed, beam, digest(&batch), paths_digest(&batch)));
            }
        }
        if !DEGENERATE_TASKS.contains(&spec.name) {
            continue;
        }
        let scores = &utts[0].scores;
        let cfg = DecodeConfig::builder().lattice_beam(8.0).build().unwrap();
        let capped = cfg.to_builder().max_active(1).build().unwrap();
        let inputs = [
            ("0 frames", cfg, first_frames(scores, 0)),
            ("1 frame", cfg, first_frames(scores, 1)),
            ("2 frames", cfg, first_frames(scores, 2)),
            ("3 frames", cfg, first_frames(scores, 3)),
            ("max_active 1", capped, scores.clone()),
        ];
        for (input, cfg, scores) in inputs {
            let what = format!("{} {input}", spec.name);
            let lat = batch_and_streamed(cfg, am, lm, &scores, &what);
            degenerate.push((spec.name, input, digest(&lat), paths_digest(&lat)));
        }
    }
    // A table of empty-lattice digests would pin nothing.
    assert!(
        nonempty * 4 >= actual.len() * 3,
        "only {nonempty} of {} lattices are non-empty",
        actual.len()
    );
    assert_table("GOLDEN", &actual, GOLDEN, |(name, seed, beam, d, paths)| {
        format!("({name:?}, {seed}, {beam:?}, {d:#018x}, {paths:#018x})")
    });
    assert_table(
        "DEGENERATE",
        &degenerate,
        DEGENERATE,
        |(name, input, d, paths)| format!("({name:?}, {input:?}, {d:#018x}, {paths:#018x})"),
    );
}
