//! A real Gaussian-mixture acoustic model.
//!
//! [`crate::acoustic`] synthesizes score *tables* with a calibrated
//! error knob — ideal for controlled experiments. This module is the
//! genuine article: a diagonal-covariance GMM per PDF, feature vectors
//! *sampled* from the true PDF's mixture, and per-frame costs computed
//! with the actual log-likelihood math (log-sum-exp over mixtures).
//! Recognition errors then emerge naturally from Gaussian overlap,
//! controlled by the separation between PDF means — the same physics as
//! a real front-end, at synthetic scale. It is also the computation the
//! paper's Kaldi-TEDLIUM/Voxforge decoders run on the GPU (Figure 1's
//! GMM bars), so its FLOP count is measured, not asserted.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use unfold_lm::WordId;

use crate::acoustic::{AcousticScores, Utterance};
use crate::graph::{HmmTopology, PdfId};
use crate::lexicon::Lexicon;

/// Standard-normal draw (Box–Muller).
fn gauss(rng: &mut SmallRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0);
    let u2: f32 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f32::consts::PI * u2).cos()
}

/// Mixtures scored together: a PDF's mixtures are split into groups of
/// `LANES`, and the group's Gaussians advance through the feature
/// dimensions side by side, one per lane.
const LANES: usize = 8;

/// A diagonal-covariance GMM acoustic model: one mixture per PDF.
#[derive(Debug, Clone)]
pub struct GmmModel {
    num_pdfs: usize,
    dim: usize,
    mixtures: usize,
    /// Means, `[pdf][group][dim][lane]`: mixture `m` of a PDF is lane
    /// `m % LANES` of group `m / LANES`. Lanes past the last mixture
    /// hold mean 0.
    means: Vec<[f32; LANES]>,
    /// Variances (diagonal), same layout. Lanes past the last mixture
    /// hold variance 1, so they divide like any other lane.
    vars: Vec<[f32; LANES]>,
    /// Log mixture weights, `[pdf][mix]` flattened.
    log_mix_w: Vec<f32>,
    /// Per-(pdf, mix) Gaussian normalizer:
    /// `-0.5 * (dim*ln(2π) + Σ ln var)`.
    gconst: Vec<f32>,
}

/// `Σ_d (feat[d] - mean[d])² / var[d]` for the eight Gaussians of one
/// group at once. Each lane accumulates over `d` ascending with its own
/// subtract, multiply, divide and add, so it holds exactly what a
/// one-Gaussian loop computes; written over fixed-width cells so the
/// lanes compile to packed arithmetic.
#[inline]
fn quad_lanes(feat: &[f32], means: &[[f32; LANES]], vars: &[[f32; LANES]]) -> [f32; LANES] {
    let mut quad = [0.0f32; LANES];
    for ((&f, mean), var) in feat.iter().zip(means).zip(vars) {
        for lane in 0..LANES {
            let diff = f - mean[lane];
            quad[lane] += diff * diff / var[lane];
        }
    }
    quad
}

impl GmmModel {
    /// Synthesizes a model: PDF centres drawn from `N(0, separation²)`
    /// per dimension, mixture means jittered around each centre, and
    /// unit-order variances. Larger `separation` ⇒ less overlap ⇒
    /// fewer recognition errors.
    ///
    /// # Panics
    /// Panics on zero `num_pdfs`/`dim`/`mixtures` or non-positive
    /// `separation`.
    pub fn synthesize(
        num_pdfs: usize,
        dim: usize,
        mixtures: usize,
        separation: f32,
        seed: u64,
    ) -> Self {
        assert!(
            num_pdfs > 0 && dim > 0 && mixtures > 0,
            "synthesize: empty model"
        );
        assert!(separation > 0.0, "synthesize: separation must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let cells = num_pdfs * mixtures.div_ceil(LANES) * dim;
        let mut model = GmmModel {
            num_pdfs,
            dim,
            mixtures,
            means: vec![[0.0; LANES]; cells],
            vars: vec![[1.0; LANES]; cells],
            log_mix_w: Vec::with_capacity(num_pdfs * mixtures),
            gconst: Vec::with_capacity(num_pdfs * mixtures),
        };
        for pdf in 0..num_pdfs {
            let centre: Vec<f32> = (0..dim).map(|_| separation * gauss(&mut rng)).collect();
            let mut raw_w = Vec::with_capacity(mixtures);
            for mix in 0..mixtures {
                let (cell, lane) = model.cell(pdf, mix);
                for (d, &c) in centre.iter().enumerate() {
                    model.means[cell + d][lane] = c + 0.3 * gauss(&mut rng);
                    model.vars[cell + d][lane] = rng.gen_range(0.6..1.4);
                }
                raw_w.push(rng.gen_range(0.5f32..1.5));
                let sum_ln_var: f32 = model.vars[cell..cell + dim]
                    .iter()
                    .map(|v| v[lane].ln())
                    .sum();
                model
                    .gconst
                    .push(-0.5 * (dim as f32 * (2.0 * core::f32::consts::PI).ln() + sum_ln_var));
            }
            let total: f32 = raw_w.iter().sum();
            for w in raw_w {
                model.log_mix_w.push((w / total).ln());
            }
        }
        model
    }

    /// Number of PDFs.
    pub fn num_pdfs(&self) -> usize {
        self.num_pdfs
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Parameter bytes (means + variances + weights, 32-bit; padding
    /// lanes are storage, not parameters, and are not counted).
    pub fn params_bytes(&self) -> u64 {
        (self.num_pdfs * self.mixtures * (2 * self.dim + 1) * 4) as u64
    }

    /// Arithmetic operations to score one frame against all PDFs: each
    /// Gaussian is evaluated once, 4 ops per dimension (subtract,
    /// square, divide, accumulate) plus ~8 for its share of the
    /// log-sum-exp. The unit tests count the kernel's trips against
    /// this figure.
    pub fn flops_per_frame(&self) -> u64 {
        (self.num_pdfs * self.mixtures * (4 * self.dim + 8)) as u64
    }

    /// Mixture groups per PDF.
    fn groups(&self) -> usize {
        self.mixtures.div_ceil(LANES)
    }

    /// Where mixture `mix` of the `pdf`-th PDF (0-based) lives: the
    /// index of its group's first `[dim]` cell, and its lane.
    fn cell(&self, pdf: usize, mix: usize) -> (usize, usize) {
        ((pdf * self.groups() + mix / LANES) * self.dim, mix % LANES)
    }

    /// Samples a feature vector from `pdf`'s mixture.
    ///
    /// # Panics
    /// Panics if `pdf` is out of range.
    pub fn sample_frame(&self, pdf: PdfId, rng: &mut SmallRng) -> Vec<f32> {
        assert!(
            pdf >= 1 && (pdf as usize) <= self.num_pdfs,
            "sample_frame: bad pdf {pdf}"
        );
        // Pick a mixture component by weight.
        let wbase = (pdf as usize - 1) * self.mixtures;
        let u: f32 = rng.gen();
        let mut acc = 0.0;
        let mut mix = self.mixtures - 1;
        for m in 0..self.mixtures {
            acc += self.log_mix_w[wbase + m].exp();
            if u < acc {
                mix = m;
                break;
            }
        }
        let (cell, lane) = self.cell(pdf as usize - 1, mix);
        (cell..cell + self.dim)
            .map(|c| self.means[c][lane] + self.vars[c][lane].sqrt() * gauss(rng))
            .collect()
    }

    /// Scores `feat` against every PDF; returns *costs* (negative
    /// log-likelihoods), index `pdf - 1`.
    ///
    /// # Panics
    /// Panics if `feat` has the wrong dimensionality.
    pub fn frame_costs(&self, feat: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.frame_costs_into(feat, &mut out);
        out
    }

    /// [`GmmModel::frame_costs`] into a caller-owned buffer (cleared and
    /// refilled), so a streaming scorer reuses one allocation per row.
    /// Nothing else is allocated: the per-PDF log-likelihoods are staged
    /// in `out` past the row and cut off before returning.
    ///
    /// # Panics
    /// Panics if `feat` has the wrong dimensionality.
    pub fn frame_costs_into(&self, feat: &[f32], out: &mut Vec<f32>) {
        assert_eq!(feat.len(), self.dim, "frame_costs: dimension mismatch");
        out.clear();
        out.resize(self.num_pdfs + self.groups() * LANES, 0.0);
        let (costs, ll) = out.split_at_mut(self.num_pdfs);
        for (pdf, cost) in costs.iter_mut().enumerate() {
            // Each Gaussian's weighted log-likelihood, once.
            let wbase = pdf * self.mixtures;
            for (group, ll) in ll.chunks_exact_mut(LANES).enumerate() {
                let (cell, _) = self.cell(pdf, group * LANES);
                let quad = quad_lanes(
                    feat,
                    &self.means[cell..cell + self.dim],
                    &self.vars[cell..cell + self.dim],
                );
                // Padding lanes have no weight or normalizer: the zip
                // stops at the last real mixture.
                let lo = wbase + group * LANES;
                let hi = (lo + LANES).min(wbase + self.mixtures);
                #[cfg(test)]
                tests::count_trips((hi - lo) * self.dim);
                for (((ll, &q), &w), &gconst) in ll
                    .iter_mut()
                    .zip(&quad)
                    .zip(&self.log_mix_w[lo..hi])
                    .zip(&self.gconst[lo..hi])
                {
                    *ll = w + (gconst - 0.5 * q);
                }
            }
            // log-sum-exp over mixtures, in mixture order.
            let ll = &ll[..self.mixtures];
            let mut max = f32::NEG_INFINITY;
            for &l in ll {
                max = max.max(l);
            }
            let mut sum = 0.0f32;
            for &l in ll {
                sum += (l - max).exp();
            }
            *cost = -(max + sum.ln());
        }
        out.truncate(self.num_pdfs);
    }
}

/// Synthesizes an utterance through the GMM: the alignment is expanded
/// as in [`crate::acoustic::synthesize_utterance`], but each frame is a
/// *sampled feature vector* scored with real GMM arithmetic — errors
/// come from Gaussian overlap, not from an injected confusion.
///
/// # Panics
/// Panics if `words` is empty, or if the model's PDF count does not
/// cover the topology's.
pub fn synthesize_utterance_gmm(
    words: &[WordId],
    lexicon: &Lexicon,
    topology: HmmTopology,
    gmm: &GmmModel,
    seed: u64,
) -> Utterance {
    assert!(
        !words.is_empty(),
        "synthesize_utterance_gmm: empty word sequence"
    );
    assert!(
        gmm.num_pdfs() >= topology.num_pdfs(lexicon.num_phonemes()),
        "synthesize_utterance_gmm: model covers {} PDFs, topology needs {}",
        gmm.num_pdfs(),
        topology.num_pdfs(lexicon.num_phonemes())
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut alignment: Vec<PdfId> = Vec::new();
    for &w in words {
        for &ph in lexicon.pronunciation(w) {
            for pdf in topology.pdfs(ph) {
                let mut d = 1;
                while d < 4 && rng.gen::<f32>() < 0.45 {
                    d += 1;
                }
                for _ in 0..d {
                    alignment.push(pdf);
                }
            }
        }
    }
    let mut flat = Vec::with_capacity(alignment.len() * gmm.num_pdfs());
    let mut row = Vec::new();
    for &pdf in &alignment {
        let feat = gmm.sample_frame(pdf, &mut rng);
        gmm.frame_costs_into(&feat, &mut row);
        flat.extend_from_slice(&row);
    }
    let scores = AcousticScores::from_flat(flat, gmm.num_pdfs());
    Utterance {
        words: words.to_vec(),
        alignment,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// (Gaussian, dimension) inner-loop trips on this thread, fed by
        /// the kernel and by [`log_gaussian`].
        static TRIPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn count_trips(n: usize) {
        TRIPS.with(|t| t.set(t.get() + n));
    }

    fn trips_of(f: impl FnOnce()) -> usize {
        TRIPS.with(|t| t.set(0));
        f();
        TRIPS.with(|t| t.get())
    }

    /// The scalar kernel this module used to score with, kept as the
    /// reference the lane kernel must match bit for bit: log-likelihood
    /// of `feat` under one (pdf, mixture) Gaussian, one serial add chain
    /// over the dimensions.
    fn log_gaussian(m: &GmmModel, pdf: PdfId, mix: usize, feat: &[f32]) -> f32 {
        let (cell, lane) = m.cell(pdf as usize - 1, mix);
        count_trips(m.dim);
        let mut quad = 0.0f32;
        for (d, &f) in feat.iter().enumerate().take(m.dim) {
            let diff = f - m.means[cell + d][lane];
            quad += diff * diff / m.vars[cell + d][lane];
        }
        m.gconst[(pdf as usize - 1) * m.mixtures + mix] - 0.5 * quad
    }

    /// ... and its log-sum-exp, which evaluated every Gaussian twice:
    /// once for the max, once for the sum.
    fn reference_frame_costs(m: &GmmModel, feat: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(m.num_pdfs);
        for pdf in 1..=m.num_pdfs as PdfId {
            let wbase = (pdf as usize - 1) * m.mixtures;
            let mut max = f32::NEG_INFINITY;
            for mix in 0..m.mixtures {
                let ll = m.log_mix_w[wbase + mix] + log_gaussian(m, pdf, mix, feat);
                max = max.max(ll);
            }
            let mut sum = 0.0f32;
            for mix in 0..m.mixtures {
                let ll = m.log_mix_w[wbase + mix] + log_gaussian(m, pdf, mix, feat);
                sum += (ll - max).exp();
            }
            out.push(-(max + sum.ln()));
        }
        out
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|c| c.to_bits()).collect()
    }

    fn model(separation: f32) -> GmmModel {
        GmmModel::synthesize(60, 12, 2, separation, 7)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Random shapes (mixture counts on both sides of one and two
        /// full groups), separations and off-model features: every row
        /// of the lane kernel equals the scalar reference's bit for bit.
        #[test]
        fn kernel_matches_the_scalar_reference_bitwise(
            num_pdfs in 1usize..12,
            dim in 1usize..48,
            mixtures in 1usize..20,
            separation in 0.05f32..8.0,
            seed in proptest::any::<u64>(),
            noise in 0.0f32..4.0,
        ) {
            let m = GmmModel::synthesize(num_pdfs, dim, mixtures, separation, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEA7);
            let mut row = vec![f32::NAN; 3]; // stale contents must not leak
            for t in 0..8 {
                let mut feat = m.sample_frame((t % num_pdfs) as PdfId + 1, &mut rng);
                for x in &mut feat {
                    *x += noise * gauss(&mut rng);
                }
                m.frame_costs_into(&feat, &mut row);
                proptest::prop_assert_eq!(bits(&row), bits(&reference_frame_costs(&m, &feat)));
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_where_every_mixture_underflows() {
        // Far from every mean `quad` overflows to +inf, each
        // log-likelihood is -inf and the row is NaN: the same NaN.
        let m = GmmModel::synthesize(5, 7, 11, 1.0, 3);
        for scale in [1e3f32, 1e18, 1e30] {
            let feat = vec![scale; 7];
            assert_eq!(
                bits(&m.frame_costs(&feat)),
                bits(&reference_frame_costs(&m, &feat)),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn kernel_evaluates_each_gaussian_once_and_the_reference_twice() {
        // 11 mixtures: one full group and one with five padding lanes,
        // which are computed but are not Gaussians of the model.
        let m = GmmModel::synthesize(9, 13, 11, 1.0, 5);
        let feat = vec![0.25; 13];
        let gaussian_dims = 9 * 11 * 13;
        assert_eq!(trips_of(|| drop(m.frame_costs(&feat))), gaussian_dims);
        assert_eq!(
            trips_of(|| drop(reference_frame_costs(&m, &feat))),
            2 * gaussian_dims
        );
        // `flops_per_frame` bills 4 ops per trip plus 8 per Gaussian.
        assert_eq!(m.flops_per_frame(), (4 * gaussian_dims + 8 * 9 * 11) as u64);
    }

    #[test]
    fn scoring_into_a_warm_buffer_does_not_reallocate() {
        let m = GmmModel::synthesize(105, 39, 11, 0.1, 1);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut row = Vec::new();
        m.frame_costs_into(&m.sample_frame(1, &mut rng), &mut row);
        let (ptr, cap) = (row.as_ptr(), row.capacity());
        for pdf in 1..=20 {
            m.frame_costs_into(&m.sample_frame(pdf, &mut rng), &mut row);
            assert_eq!(row.len(), 105);
            assert_eq!((row.as_ptr(), row.capacity()), (ptr, cap));
        }
    }

    #[test]
    fn padding_lanes_are_inert_and_not_billed() {
        let m = GmmModel::synthesize(4, 6, 3, 1.0, 2);
        assert_eq!(m.params_bytes(), (4 * 3 * (2 * 6 + 1) * 4) as u64);
        for pdf in 0..4 {
            let (cell, _) = m.cell(pdf, 0);
            for c in cell..cell + 6 {
                assert_eq!(m.means[c][3..], [0.0; LANES - 3]);
                assert_eq!(m.vars[c][3..], [1.0; LANES - 3]);
            }
        }
    }

    #[test]
    fn frame_costs_favor_the_generating_pdf_when_separated() {
        let m = model(6.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut wins = 0;
        let trials = 200;
        for t in 0..trials {
            let pdf = (t % 60) as PdfId + 1;
            let feat = m.sample_frame(pdf, &mut rng);
            let costs = m.frame_costs(&feat);
            let best = costs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0 as u32
                + 1;
            if best == pdf {
                wins += 1;
            }
        }
        assert!(
            wins > trials * 95 / 100,
            "only {wins}/{trials} frames classified"
        );
    }

    #[test]
    fn overlapping_gaussians_confuse_frames() {
        let tight = model(0.3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut wins = 0;
        for t in 0..200 {
            let pdf = (t % 60) as PdfId + 1;
            let feat = tight.sample_frame(pdf, &mut rng);
            let costs = tight.frame_costs(&feat);
            let best = costs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0 as u32
                + 1;
            if best == pdf {
                wins += 1;
            }
        }
        assert!(wins < 160, "{wins}/200 — separation 0.3 should overlap");
    }

    #[test]
    fn log_sum_exp_matches_single_mixture_gaussian() {
        // With one mixture the cost is exactly the negative Gaussian
        // log-density.
        let m = GmmModel::synthesize(4, 3, 1, 2.0, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let feat = m.sample_frame(2, &mut rng);
        let costs = m.frame_costs(&feat);
        let direct = -(m.log_mix_w[1] + log_gaussian(&m, 2, 0, &feat));
        assert!((costs[1] - direct).abs() < 1e-4);
        // log weight of a single mixture is ln(1) = 0.
        assert!(m.log_mix_w[1].abs() < 1e-6);
    }

    #[test]
    fn flops_and_bytes_scale_with_shape() {
        let small = GmmModel::synthesize(10, 8, 2, 1.0, 0);
        let big = GmmModel::synthesize(100, 8, 2, 1.0, 0);
        assert_eq!(big.flops_per_frame(), 10 * small.flops_per_frame());
        assert_eq!(big.params_bytes(), 10 * small.params_bytes());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GmmModel::synthesize(10, 4, 2, 1.0, 9);
        let b = GmmModel::synthesize(10, 4, 2, 1.0, 9);
        assert_eq!(a.means, b.means);
        assert_eq!(a.gconst, b.gconst);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let m = model(1.0);
        let _ = m.frame_costs(&[0.0; 3]);
    }

    mod end_to_end {
        use super::*;
        use crate::graph::build_am;
        use unfold_wfst::EPSILON;

        #[test]
        fn gmm_utterance_is_decodable_shaped() {
            let lex = Lexicon::generate(30, 15, 5);
            let am = build_am(&lex, HmmTopology::Kaldi3State);
            let gmm = GmmModel::synthesize(am.num_pdfs, 12, 2, 5.0, 11);
            let utt = synthesize_utterance_gmm(&[3, 7], &lex, HmmTopology::Kaldi3State, &gmm, 13);
            assert_eq!(utt.scores.num_pdfs(), am.num_pdfs);
            assert!(utt.scores.num_frames() >= utt.alignment.len());
            let _ = EPSILON;
            // The generating PDF should usually be the cheapest.
            let mut wins = 0;
            for (t, &pdf) in utt.alignment.iter().enumerate() {
                let row = utt.scores.frame(t);
                let best = row
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0 as u32
                    + 1;
                if best == pdf {
                    wins += 1;
                }
            }
            assert!(
                wins * 10 > utt.alignment.len() * 8,
                "{wins}/{}",
                utt.alignment.len()
            );
        }
    }
}
