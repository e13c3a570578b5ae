//! Decoder configuration, statistics, and results.

use unfold_lm::WordId;

/// Which frame-loop implementation the on-the-fly decoder runs. Both
/// kernels produce bit-identical output — words, costs, stats, and the
/// full ordered [`crate::TraceSink`] event stream — which the verify
/// matrix and proptests pin; they differ only in how the work is laid
/// out for the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeKernel {
    /// The scalar reference kernel: per-token map walks, `get` +
    /// `insert` relaxation. Kept compiled unconditionally so the SoA
    /// kernel always has a differential baseline.
    Legacy,
    /// The struct-of-arrays kernel: contiguous-slice threshold fold,
    /// packed survivor bitmask compaction, a batched probe-buffer
    /// prefetch pass over the frame's (AM, LM) state keys, and fused
    /// single-walk token relaxation.
    Soa,
}

impl DecodeKernel {
    /// Stable snake_case name used in telemetry and bench exports.
    pub fn name(self) -> &'static str {
        match self {
            DecodeKernel::Legacy => "legacy",
            DecodeKernel::Soa => "soa",
        }
    }
}

impl Default for DecodeKernel {
    /// The `soa_kernel` cargo feature (on by default) selects the SoA
    /// kernel; building `unfold-decoder` with `--no-default-features`
    /// flips the default back to the scalar reference kernel. Either
    /// way both kernels stay compiled and runtime-selectable.
    fn default() -> Self {
        if cfg!(feature = "soa_kernel") {
            DecodeKernel::Soa
        } else {
            DecodeKernel::Legacy
        }
    }
}

/// Beam-search parameters shared by both decoders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeConfig {
    /// Beam width: tokens whose cost exceeds `best + beam` are pruned.
    pub beam: f32,
    /// Hard cap on live tokens per frame (histogram-style pruning);
    /// `usize::MAX` disables it.
    pub max_active: usize,
    /// Enable the paper's §3.3 preemptive pruning: abandon a hypothesis
    /// mid-back-off as soon as its accumulated cost crosses the beam
    /// threshold.
    pub preemptive_pruning: bool,
    /// Capacity of the software Offset Lookup Table memoizing
    /// `(LM state, word)` → word-arc resolutions (paper §3.1, Fig. 7),
    /// in entries; 0 disables it. Rounded up to a power of two. The OLT
    /// never changes decode output — only how many LM arc fetches the
    /// binary searches cost — so it defaults to off to keep simulator
    /// traces identical to the unmemoized decoder.
    pub olt_entries: usize,
    /// Capacity of the per-session dynamic memo layer caching
    /// *composite* `(biased LM state, word)` resolutions when decoding
    /// through a biasing adapter, in entries; 0 disables it. Rounded up
    /// to a power of two. Unbiased decodes never touch this layer (the
    /// LM reports no memo context), so it can never perturb their
    /// output or statistics.
    pub bias_cache_entries: usize,
    /// Frame-loop implementation (see [`DecodeKernel`]). Never changes
    /// decode output; defaults by the `soa_kernel` cargo feature.
    pub kernel: DecodeKernel,
    /// Lattice beam: when a word lattice is requested, arcs whose best
    /// complete path exceeds `best + lattice_beam` are pruned from the
    /// lattice in the post-pass. Only consulted by the lattice-producing
    /// entry points (`decode_lattice*`, `decode_nbest*`, streaming with
    /// the lattice enabled); plain 1-best decoding ignores it entirely,
    /// so it can never perturb search output.
    pub lattice_beam: f32,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        DecodeConfig {
            beam: 14.0,
            max_active: 6_000,
            preemptive_pruning: true,
            olt_entries: 0,
            bias_cache_entries: 256,
            kernel: DecodeKernel::default(),
            lattice_beam: 8.0,
        }
    }
}

impl DecodeConfig {
    /// A validating builder seeded with the defaults — the sanctioned
    /// way to construct a non-default configuration. Struct literals
    /// silently accept nonsense (`beam: 0.0` prunes everything,
    /// `olt_entries: 100` would be quietly rounded); the builder
    /// rejects it at construction time.
    pub fn builder() -> DecodeConfigBuilder {
        DecodeConfigBuilder {
            cfg: DecodeConfig::default(),
        }
    }

    /// A builder seeded with this configuration's current values, for
    /// deriving a variant (`cfg.to_builder().olt_entries(512).build()`).
    pub fn to_builder(self) -> DecodeConfigBuilder {
        DecodeConfigBuilder { cfg: self }
    }
}

/// A [`DecodeConfig`] that failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Beam must be finite and strictly positive.
    BadBeam(f32),
    /// `max_active` of zero would prune every token.
    ZeroMaxActive,
    /// A non-zero OLT capacity must be a power of two (the table is
    /// XOR-indexed).
    OltNotPowerOfTwo(usize),
    /// A non-zero per-session bias-cache capacity must be a power of
    /// two (same XOR-indexed table layout as the OLT).
    BiasCacheNotPowerOfTwo(usize),
    /// Lattice beam must be finite and strictly positive (a zero or
    /// negative lattice beam would prune the Viterbi path itself).
    BadLatticeBeam(f32),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadBeam(b) => {
                write!(f, "beam must be finite and > 0, got {b}")
            }
            ConfigError::ZeroMaxActive => write!(f, "max_active must be > 0"),
            ConfigError::OltNotPowerOfTwo(n) => {
                write!(f, "olt_entries must be 0 or a power of two, got {n}")
            }
            ConfigError::BiasCacheNotPowerOfTwo(n) => {
                write!(f, "bias_cache_entries must be 0 or a power of two, got {n}")
            }
            ConfigError::BadLatticeBeam(b) => {
                write!(f, "lattice_beam must be finite and > 0, got {b}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`DecodeConfig`]; see [`DecodeConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct DecodeConfigBuilder {
    cfg: DecodeConfig,
}

impl DecodeConfigBuilder {
    /// Beam width (must be finite and > 0).
    pub fn beam(mut self, beam: f32) -> Self {
        self.cfg.beam = beam;
        self
    }

    /// Live-token cap per frame (must be > 0; `usize::MAX` disables).
    pub fn max_active(mut self, max_active: usize) -> Self {
        self.cfg.max_active = max_active;
        self
    }

    /// Toggle preemptive pruning (§3.3).
    pub fn preemptive_pruning(mut self, on: bool) -> Self {
        self.cfg.preemptive_pruning = on;
        self
    }

    /// Software-OLT capacity in entries (0 disables; otherwise must be
    /// a power of two).
    pub fn olt_entries(mut self, entries: usize) -> Self {
        self.cfg.olt_entries = entries;
        self
    }

    /// Per-session bias-cache capacity in entries (0 disables;
    /// otherwise must be a power of two).
    pub fn bias_cache_entries(mut self, entries: usize) -> Self {
        self.cfg.bias_cache_entries = entries;
        self
    }

    /// Frame-loop kernel selection (see [`DecodeKernel`]).
    pub fn kernel(mut self, kernel: DecodeKernel) -> Self {
        self.cfg.kernel = kernel;
        self
    }

    /// Lattice beam for lattice-producing entry points (must be finite
    /// and > 0).
    pub fn lattice_beam(mut self, lattice_beam: f32) -> Self {
        self.cfg.lattice_beam = lattice_beam;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`ConfigError`] describing the first rejected field.
    pub fn build(self) -> Result<DecodeConfig, ConfigError> {
        let c = self.cfg;
        if !c.beam.is_finite() || c.beam <= 0.0 {
            return Err(ConfigError::BadBeam(c.beam));
        }
        if c.max_active == 0 {
            return Err(ConfigError::ZeroMaxActive);
        }
        if c.olt_entries != 0 && !c.olt_entries.is_power_of_two() {
            return Err(ConfigError::OltNotPowerOfTwo(c.olt_entries));
        }
        if c.bias_cache_entries != 0 && !c.bias_cache_entries.is_power_of_two() {
            return Err(ConfigError::BiasCacheNotPowerOfTwo(c.bias_cache_entries));
        }
        if !c.lattice_beam.is_finite() || c.lattice_beam <= 0.0 {
            return Err(ConfigError::BadLatticeBeam(c.lattice_beam));
        }
        Ok(c)
    }
}

/// Counters collected during one utterance decode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeStats {
    /// Frames processed.
    pub frames: usize,
    /// Tokens created (pre-pruning).
    pub tokens_created: u64,
    /// Tokens discarded by beam/histogram pruning.
    pub tokens_pruned: u64,
    /// Peak live tokens in any frame.
    pub max_active: usize,
    /// Sum of live tokens over frames (for mean-active computations).
    pub total_active: u64,
    /// LM lookups issued (cross-word transitions).
    pub lm_lookups: u64,
    /// Total binary-search probes + back-off arc fetches.
    pub lm_fetches: u64,
    /// Back-off arcs traversed.
    pub backoff_hops: u64,
    /// Hypotheses abandoned by preemptive pruning (§3.3).
    pub preemptive_prunes: u64,
    /// Non-emitting (epsilon) expansions performed.
    pub epsilon_expansions: u64,
    /// Software-OLT probes issued (one per LM lookup step while the
    /// table is enabled).
    pub olt_probes: u64,
    /// Software-OLT probes that hit (binary search skipped).
    pub olt_hits: u64,
    /// Resolutions installed into the software OLT.
    pub olt_installs: u64,
    /// Installs that displaced a live entry.
    pub olt_evictions: u64,
    /// Per-session bias-cache probes (composite-state resolutions;
    /// zero on unbiased decodes).
    pub bias_probes: u64,
    /// Bias-cache probes that hit (base walk + join skipped).
    pub bias_hits: u64,
    /// Resolutions installed into the bias cache.
    pub bias_installs: u64,
    /// Bias-cache installs that displaced a live entry.
    pub bias_evictions: u64,
}

impl DecodeStats {
    /// Mean live tokens per frame.
    pub fn mean_active(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_active as f64 / self.frames as f64
        }
    }

    /// Mean LM fetches per lookup (the cost the Offset Lookup Table and
    /// binary search fight over).
    pub fn fetches_per_lookup(&self) -> f64 {
        if self.lm_lookups == 0 {
            0.0
        } else {
            self.lm_fetches as f64 / self.lm_lookups as f64
        }
    }

    /// Software-OLT hit ratio in `[0, 1]` (0.0 when the table was off).
    pub fn olt_hit_ratio(&self) -> f64 {
        if self.olt_probes == 0 {
            0.0
        } else {
            self.olt_hits as f64 / self.olt_probes as f64
        }
    }

    /// Per-session bias-cache hit ratio in `[0, 1]` (0.0 when unbiased
    /// or the cache was off).
    pub fn bias_hit_ratio(&self) -> f64 {
        if self.bias_probes == 0 {
            0.0
        } else {
            self.bias_hits as f64 / self.bias_probes as f64
        }
    }
}

/// Output of decoding one utterance.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeResult {
    /// Best-path word sequence.
    pub words: Vec<WordId>,
    /// Frame at which each word in `words` was recognized (the frame of
    /// the token-passing arc that carried the word label). Parallel to
    /// `words`; empty when the decode was incomplete.
    pub word_frames: Vec<u32>,
    /// Cost of the best complete hypothesis (`f32::INFINITY` when no
    /// hypothesis reached a final state).
    pub cost: f32,
    /// Search statistics.
    pub stats: DecodeStats,
}

impl DecodeResult {
    /// Whether the search produced a complete hypothesis.
    pub fn is_complete(&self) -> bool {
        self.cost.is_finite()
    }

    /// Per-word frame spans `(word, first_frame, last_frame)` derived
    /// from `word_frames`: each word's span runs from just after the
    /// previous word's recognition frame through its own. Spans are
    /// inclusive and non-overlapping; word boundaries inside a span are
    /// not refined below the word level.
    pub fn word_spans(&self) -> Vec<(WordId, u32, u32)> {
        let mut spans = Vec::with_capacity(self.words.len());
        let mut start = 0u32;
        for (&w, &end) in self.words.iter().zip(&self.word_frames) {
            spans.push((w, start.min(end), end));
            start = end + 1;
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DecodeConfig::default();
        assert!(c.beam > 0.0);
        assert!(c.max_active > 100);
        assert!(c.preemptive_pruning);
    }

    #[test]
    fn builder_accepts_valid_configs() {
        let c = DecodeConfig::builder()
            .beam(9.0)
            .max_active(64)
            .preemptive_pruning(false)
            .olt_entries(4096)
            .kernel(DecodeKernel::Legacy)
            .build()
            .unwrap();
        assert_eq!(c.beam, 9.0);
        assert_eq!(c.max_active, 64);
        assert!(!c.preemptive_pruning);
        assert_eq!(c.olt_entries, 4096);
        assert_eq!(c.kernel, DecodeKernel::Legacy);
        assert_eq!(c.kernel.name(), "legacy");
        // The feature-flag default picks a kernel; both stay valid.
        assert!(DecodeConfig::builder()
            .kernel(DecodeKernel::Soa)
            .build()
            .is_ok());
        // Defaults pass unmodified.
        assert_eq!(
            DecodeConfig::builder().build().unwrap(),
            DecodeConfig::default()
        );
        // usize::MAX disables the cap and is valid.
        assert!(DecodeConfig::builder()
            .max_active(usize::MAX)
            .build()
            .is_ok());
        // OLT 0 = disabled is valid.
        assert!(DecodeConfig::builder().olt_entries(0).build().is_ok());
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            DecodeConfig::builder().beam(0.0).build(),
            Err(ConfigError::BadBeam(0.0))
        );
        assert_eq!(
            DecodeConfig::builder().beam(-3.0).build(),
            Err(ConfigError::BadBeam(-3.0))
        );
        assert!(matches!(
            DecodeConfig::builder().beam(f32::NAN).build(),
            Err(ConfigError::BadBeam(_))
        ));
        assert!(matches!(
            DecodeConfig::builder().beam(f32::INFINITY).build(),
            Err(ConfigError::BadBeam(_))
        ));
        assert_eq!(
            DecodeConfig::builder().max_active(0).build(),
            Err(ConfigError::ZeroMaxActive)
        );
        assert_eq!(
            DecodeConfig::builder().olt_entries(100).build(),
            Err(ConfigError::OltNotPowerOfTwo(100))
        );
        assert_eq!(
            DecodeConfig::builder().lattice_beam(0.0).build(),
            Err(ConfigError::BadLatticeBeam(0.0))
        );
        assert!(matches!(
            DecodeConfig::builder().lattice_beam(f32::INFINITY).build(),
            Err(ConfigError::BadLatticeBeam(_))
        ));
        assert!(matches!(
            DecodeConfig::builder().lattice_beam(f32::NAN).build(),
            Err(ConfigError::BadLatticeBeam(_))
        ));
    }

    #[test]
    fn derived_ratios() {
        let s = DecodeStats {
            frames: 10,
            total_active: 250,
            lm_lookups: 5,
            lm_fetches: 40,
            ..Default::default()
        };
        assert_eq!(s.mean_active(), 25.0);
        assert_eq!(s.fetches_per_lookup(), 8.0);
        let empty = DecodeStats::default();
        assert_eq!(empty.mean_active(), 0.0);
        assert_eq!(empty.fetches_per_lookup(), 0.0);
    }

    #[test]
    fn incomplete_result_detected() {
        let r = DecodeResult {
            words: vec![],
            word_frames: vec![],
            cost: f32::INFINITY,
            stats: DecodeStats::default(),
        };
        assert!(!r.is_complete());
        assert!(r.word_spans().is_empty());
    }

    #[test]
    fn word_spans_partition_the_frames() {
        let r = DecodeResult {
            words: vec![7, 3, 9],
            word_frames: vec![4, 5, 11],
            cost: 1.0,
            stats: DecodeStats::default(),
        };
        assert_eq!(r.word_spans(), vec![(7, 0, 4), (3, 5, 5), (9, 6, 11)]);
    }
}
