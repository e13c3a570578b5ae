//! Golden digests of GMM score rows, pinned from the scalar kernel that
//! evaluated `[pdf][mix][dim]` parameters one Gaussian at a time (and
//! each Gaussian twice). Any rewrite of `GmmModel::frame_costs_into`
//! or of the parameter layout must reproduce every row bit for bit:
//! the decoder's transcripts, and the benchmark's exact-gated
//! `wer_pct`, are functions of these bits.
//!
//! Two digests per model shape: one over the 64 feature frames (pins
//! `GmmModel::synthesize`'s and `sample_frame`'s RNG draw order and
//! parameter indexing) and one over the 64 score rows. The shapes cover
//! the benchmark's model, the unit tests' `(60, 12, 2)`, and the tails
//! of an eight-wide mixture group: 1, 3, 11 and 16 mixtures, `dim` 1
//! and 40. On a mismatch the failure prints the whole table as
//! computed, ready to paste over `GOLDEN`: only do that for a change
//! that is *meant* to alter scores.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use unfold::{System, TaskSpec};
use unfold_am::GmmModel;

const FRAMES: usize = 64;
/// Channel noise added to each sampled feature, as the benchmark's
/// `serve_tcp_feat` inputs do, so frames sit off the mixture means.
const FEATURE_NOISE: f32 = 0.5;

/// `(case, features digest, rows digest)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    (
        "voxforge 39x8 sep 0.1",
        0xfd452d4fad2a4758,
        0x122fcec199322232,
    ),
    ("60 pdfs 12x2 sep 6", 0x6f01f949670b3e89, 0x0e87fdbe50fe5bfe),
    (
        "60 pdfs 12x2 sep 0.3",
        0xb3f4767a272ff6de,
        0x8d58cf5882eade9b,
    ),
    ("1 mixture", 0x3dd9a20754c9abf4, 0x8a4352adb091cb22),
    ("3 mixtures", 0xda008a7f4c6d654a, 0x3963326e04b70102),
    ("11 mixtures", 0x233c6ec98a72ee4a, 0x68f4f93264bc8dc2),
    ("16 mixtures", 0x11db7c08771459ca, 0xe0c05ebb57fea8d7),
    ("dim 1", 0x23d232c112a42338, 0x061f62b1a6a9c457),
    ("dim 40", 0x3aa947d712599631, 0x2754031137c37759),
];

/// The models under test, by case name.
fn cases() -> Vec<(&'static str, GmmModel)> {
    let bench = System::build(&TaskSpec::voxforge().with_real_gmm(39, 8, 0.1))
        .gmm
        .expect("with_real_gmm builds a model");
    vec![
        ("voxforge 39x8 sep 0.1", bench),
        (
            "60 pdfs 12x2 sep 6",
            GmmModel::synthesize(60, 12, 2, 6.0, 7),
        ),
        (
            "60 pdfs 12x2 sep 0.3",
            GmmModel::synthesize(60, 12, 2, 0.3, 7),
        ),
        ("1 mixture", GmmModel::synthesize(7, 5, 1, 2.0, 21)),
        ("3 mixtures", GmmModel::synthesize(9, 13, 3, 1.0, 22)),
        ("11 mixtures", GmmModel::synthesize(5, 24, 11, 0.5, 23)),
        ("16 mixtures", GmmModel::synthesize(4, 39, 16, 0.3, 24)),
        ("dim 1", GmmModel::synthesize(6, 1, 8, 1.0, 25)),
        ("dim 40", GmmModel::synthesize(3, 40, 9, 2.0, 26)),
    ]
}

/// FNV-1a over a stream of 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn mix(&mut self, values: &[f32]) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

#[test]
fn score_rows_match_the_golden_digests() {
    let mut actual: Vec<(&str, u64, u64)> = Vec::new();
    for (case, (name, model)) in cases().into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0x6011_D000 + case as u64);
        let (mut feats, mut rows) = (Fnv::new(), Fnv::new());
        let mut into = Vec::new();
        for t in 0..FRAMES {
            let pdf = (t % model.num_pdfs()) as u32 + 1;
            let mut feat = model.sample_frame(pdf, &mut rng);
            for x in &mut feat {
                let (u1, u2): (f32, f32) = (rng.gen_range(1e-7..1.0), rng.gen());
                *x += FEATURE_NOISE * (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            }
            let row = model.frame_costs(&feat);
            assert_eq!(row.len(), model.num_pdfs());
            assert!(row.iter().all(|c| c.is_finite()), "{name}: frame {t}");
            // A reused buffer holding a stale row must read the same.
            model.frame_costs_into(&feat, &mut into);
            assert_eq!(
                into.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                row.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                "{name}: frame {t}"
            );
            feats.mix(&feat);
            rows.mix(&row);
        }
        actual.push((name, feats.0, rows.0));
    }
    if actual != GOLDEN {
        let mut table = String::new();
        for (name, feats, rows) in &actual {
            table.push_str(&format!("    ({name:?}, {feats:#018x}, {rows:#018x}),\n"));
        }
        panic!("GMM digests differ from GOLDEN; computed table:\n{table}");
    }
}
