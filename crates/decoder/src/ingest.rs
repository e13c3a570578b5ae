//! The unified frame-ingest surface.
//!
//! [`FrameInput`] is the one currency every ingest path speaks
//! ([`crate::StreamSession::ingest_frame`], the serve layer's
//! `ingest_frame`, the `FramesV2` wire message): a frame is either a
//! precomputed score row or a raw feature vector. [`AcousticScorer`]
//! turns either into a score row. Scoring is a *pure per-frame
//! function* (no state carried between frames), so one scorer can be
//! shared by any number of interleaved sessions without changing what
//! any of them decodes.

use std::sync::Arc;
use unfold_am::GmmModel;

/// One frame of input to a streaming decode: either a precomputed
/// acoustic score row (cost per PDF, index `pdf - 1` — what
/// [`crate::StreamSession::push_frame`] takes) or a raw feature
/// vector for an [`AcousticScorer`] to score.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameInput {
    /// A precomputed score row: `scores[pdf - 1]` is the acoustic cost
    /// (negative log-likelihood) of PDF `pdf` on this frame.
    Scores(Vec<f32>),
    /// A raw feature vector; an [`AcousticScorer`] derives the score row.
    Features(Vec<f32>),
}

impl FrameInput {
    /// Stable lowercase name for telemetry and wire messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FrameInput::Scores(_) => "scores",
            FrameInput::Features(_) => "features",
        }
    }

    /// The raw values regardless of kind.
    pub fn values(&self) -> &[f32] {
        match self {
            FrameInput::Scores(v) | FrameInput::Features(v) => v,
        }
    }

    /// Consumes the frame, returning its backing buffer (for pooling).
    pub fn into_values(self) -> Vec<f32> {
        match self {
            FrameInput::Scores(v) | FrameInput::Features(v) => v,
        }
    }
}

/// An [`AcousticScorer`] rejected a frame. Scoring failures are typed
/// and recoverable — a malformed frame must never panic a worker that
/// is multiplexing other sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreError {
    /// The scorer has no acoustic frontend: it can only pass
    /// precomputed score rows through, and was handed
    /// [`FrameInput::Features`].
    FeaturesUnsupported,
    /// The frame's width does not match what the scorer requires
    /// (score-row width for precomputed rows, feature dimension for
    /// features).
    WidthMismatch {
        /// Width the scorer requires.
        expected: usize,
        /// Width the frame actually had.
        got: usize,
    },
    /// A feature frame carries NaN or ±inf. Scored, it would turn into
    /// NaN costs that the search compares and accumulates like numbers.
    NonFinite {
        /// Index of the first offending value in the frame.
        index: usize,
    },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::FeaturesUnsupported => {
                write!(
                    f,
                    "scorer accepts only precomputed score rows, got features"
                )
            }
            ScoreError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "frame width mismatch: scorer expects {expected}, got {got}"
                )
            }
            ScoreError::NonFinite { index } => {
                write!(f, "feature frame is not finite at index {index}")
            }
        }
    }
}

impl std::error::Error for ScoreError {}

/// Turns [`FrameInput`]s into acoustic score rows.
///
/// # Contract
///
/// An implementation must be a **pure per-frame function**: the row
/// written for a frame depends only on that frame's contents, never on
/// call order or frames scored before it. The serve layer shares one
/// scorer across every interleaved session and relies on this to keep
/// each session's output bit-identical to a standalone decode — a
/// stateful scorer leaks one session's frames into another's rows.
/// (Accumulating *telemetry* — busy time, frame counts — is fine; the
/// rows themselves must be history-free.)
///
/// Implementations must also never panic on malformed input: width
/// checks return [`ScoreError::WidthMismatch`], missing capabilities
/// return [`ScoreError::FeaturesUnsupported`], and a frontend that does
/// arithmetic on features refuses NaN and ±inf with
/// [`ScoreError::NonFinite`].
///
/// (`Debug` is a supertrait so scorer handles can sit inside
/// `#[derive(Debug)]` scheduler state; derive it.)
pub trait AcousticScorer: Send + Sync + std::fmt::Debug {
    /// Width of every score row this scorer emits (`num_pdfs`).
    fn num_pdfs(&self) -> usize;

    /// Scores one frame into `out` (cleared and refilled with exactly
    /// [`AcousticScorer::num_pdfs`] costs).
    fn score_into(&self, frame: &FrameInput, out: &mut Vec<f32>) -> Result<(), ScoreError>;
}

/// The passthrough scorer: accepts precomputed score rows of a fixed
/// width and copies them through; rejects feature frames. Ingesting a
/// score row through it is byte-for-byte the
/// [`crate::StreamSession::push_frame`] path.
#[derive(Debug, Clone, Copy)]
pub struct PrecomputedScorer {
    width: usize,
}

impl PrecomputedScorer {
    /// A passthrough for score rows of exactly `width` costs.
    pub fn new(width: usize) -> Self {
        PrecomputedScorer { width }
    }
}

impl AcousticScorer for PrecomputedScorer {
    fn num_pdfs(&self) -> usize {
        self.width
    }

    fn score_into(&self, frame: &FrameInput, out: &mut Vec<f32>) -> Result<(), ScoreError> {
        match frame {
            FrameInput::Scores(row) => {
                if row.len() != self.width {
                    return Err(ScoreError::WidthMismatch {
                        expected: self.width,
                        got: row.len(),
                    });
                }
                out.clear();
                out.extend_from_slice(row);
                Ok(())
            }
            FrameInput::Features(_) => Err(ScoreError::FeaturesUnsupported),
        }
    }
}

/// A real acoustic frontend: scores feature frames through a
/// [`GmmModel`] (log-sum-exp over diagonal-covariance mixtures) and
/// passes precomputed rows through unchanged, so one server can serve
/// feature-pushing and score-pushing clients simultaneously.
#[derive(Debug, Clone)]
pub struct GmmScorer {
    model: Arc<GmmModel>,
}

impl GmmScorer {
    /// A scorer backed by `model`.
    pub fn new(model: Arc<GmmModel>) -> Self {
        GmmScorer { model }
    }

    /// The backing model.
    pub fn model(&self) -> &Arc<GmmModel> {
        &self.model
    }
}

impl AcousticScorer for GmmScorer {
    fn num_pdfs(&self) -> usize {
        self.model.num_pdfs()
    }

    fn score_into(&self, frame: &FrameInput, out: &mut Vec<f32>) -> Result<(), ScoreError> {
        match frame {
            FrameInput::Scores(row) => {
                if row.len() != self.model.num_pdfs() {
                    return Err(ScoreError::WidthMismatch {
                        expected: self.model.num_pdfs(),
                        got: row.len(),
                    });
                }
                out.clear();
                out.extend_from_slice(row);
                Ok(())
            }
            FrameInput::Features(feat) => {
                if feat.len() != self.model.dim() {
                    return Err(ScoreError::WidthMismatch {
                        expected: self.model.dim(),
                        got: feat.len(),
                    });
                }
                if let Some(index) = feat.iter().position(|v| !v.is_finite()) {
                    return Err(ScoreError::NonFinite { index });
                }
                self.model.frame_costs_into(feat, out);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precomputed_scorer_passes_rows_through_bitwise() {
        let s = PrecomputedScorer::new(3);
        assert_eq!(s.num_pdfs(), 3);
        let mut out = vec![9.0; 7]; // stale contents must be cleared
        s.score_into(&FrameInput::Scores(vec![1.5, -0.25, 3.0]), &mut out)
            .unwrap();
        assert_eq!(out, vec![1.5, -0.25, 3.0]);
    }

    #[test]
    fn precomputed_scorer_rejects_bad_input_without_panicking() {
        let s = PrecomputedScorer::new(3);
        let mut out = Vec::new();
        assert_eq!(
            s.score_into(&FrameInput::Scores(vec![1.0]), &mut out),
            Err(ScoreError::WidthMismatch {
                expected: 3,
                got: 1
            })
        );
        assert_eq!(
            s.score_into(&FrameInput::Features(vec![1.0, 2.0, 3.0]), &mut out),
            Err(ScoreError::FeaturesUnsupported)
        );
    }

    #[test]
    fn gmm_scorer_matches_direct_model_scoring() {
        let model = Arc::new(GmmModel::synthesize(6, 4, 2, 2.5, 77));
        let s = GmmScorer::new(model.clone());
        assert_eq!(s.num_pdfs(), model.num_pdfs());
        let feat: Vec<f32> = (0..model.dim()).map(|d| d as f32 * 0.5 - 1.0).collect();
        let direct = model.frame_costs(&feat);
        let mut out = Vec::new();
        s.score_into(&FrameInput::Features(feat.clone()), &mut out)
            .unwrap();
        assert_eq!(
            out.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            direct.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            "scorer must reproduce the model's rows bit-for-bit"
        );
        // Precomputed rows pass through; wrong widths are typed errors.
        s.score_into(&FrameInput::Scores(direct.clone()), &mut out)
            .unwrap();
        assert_eq!(out, direct);
        assert!(matches!(
            s.score_into(&FrameInput::Features(vec![0.0]), &mut out),
            Err(ScoreError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn gmm_scorer_refuses_non_finite_features() {
        let s = GmmScorer::new(Arc::new(GmmModel::synthesize(6, 4, 2, 2.5, 77)));
        let mut out = Vec::new();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut feat = vec![0.5; 4];
            feat[2] = bad;
            assert_eq!(
                s.score_into(&FrameInput::Features(feat), &mut out),
                Err(ScoreError::NonFinite { index: 2 })
            );
        }
        // The largest finite value is a feature like any other, and a
        // precomputed row is the client's to vouch for.
        assert!(s
            .score_into(&FrameInput::Features(vec![f32::MAX; 4]), &mut out)
            .is_ok());
        assert!(s
            .score_into(&FrameInput::Scores(vec![f32::INFINITY; 6]), &mut out)
            .is_ok());
    }

    #[test]
    fn frame_input_accessors() {
        let f = FrameInput::Features(vec![1.0, 2.0]);
        assert_eq!(f.kind_name(), "features");
        assert_eq!(f.values(), &[1.0, 2.0]);
        assert_eq!(f.into_values(), vec![1.0, 2.0]);
        let s = FrameInput::Scores(vec![3.0]);
        assert_eq!(s.kind_name(), "scores");
    }
}
