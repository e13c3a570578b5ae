#![warn(missing_docs)]

//! WFST compression (paper §3.4).
//!
//! UNFOLD's 31x footprint reduction comes from *combining* on-the-fly
//! composition with aggressive compression of the two individual WFSTs.
//! This crate implements all of it:
//!
//! * [`bits`] — bit-granular writer, and a random-access reader over
//!   serialized bytes,
//! * [`quant`] — the K-means weight quantizer (64 clusters → 6-bit
//!   weight indices, the paper's <0.01% WER-impact trick),
//! * [`am`] — the compressed AM format of Figure 5: a 2-bit destination
//!   tag makes most arcs 20 bits (self / +1 / −1 locality), the rest
//!   58 bits,
//! * [`lm`] — the compressed LM format: 6-bit unigram arcs whose word id
//!   and destination are implied by position, 45-bit regular arcs
//!   supporting random access (binary search), 27-bit back-off arcs
//!   stored last,
//! * [`io`] — the `UNFA`/`UNFL` section formats. A compressed model
//!   *is* its serialized section bytes plus a parsed header, decoded in
//!   place through one reader; a private storage handle holds the
//!   bytes, either in a buffer of the model's own (`compress`) or as a
//!   range of a shared bundle, owned or mapped (`from_bundle`, which
//!   walks every arc once before any decode reads it),
//! * [`composed`] — the Price-et-al-style compression of the *composed*
//!   WFST used as the paper's "Fully-Composed+Comp" comparator
//!   (Table 2, Figure 8),
//! * [`bundle`] — the `.unfb` single-file model bundle, the models'
//!   only on-disk form (versioned
//!   section table, CRC-64 checksums, one AM + named LMs + symbol
//!   tables + metadata) with owned and mmap-backed opens,
//! * [`mmap`] — dependency-free read-only file mapping (raw syscalls on
//!   Linux x86-64, owned-read fallback elsewhere).
//!
//! # Example
//!
//! ```
//! use unfold_compress::{CompressedAm, WeightQuantizer};
//! use unfold_am::{build_am, HmmTopology, Lexicon};
//!
//! let am = build_am(&Lexicon::generate(50, 20, 1), HmmTopology::Kaldi3State);
//! let comp = CompressedAm::compress(&am.fst, 64, 0);
//! assert!(comp.size_bytes() < unfold_wfst::SizeModel::UNCOMPRESSED.bytes(&am.fst));
//! let rt = comp.to_wfst();
//! assert_eq!(rt.num_arcs(), am.fst.num_arcs());
//! # let _: Option<&WeightQuantizer> = None;
//! ```

pub mod am;
pub mod bits;
pub mod bundle;
pub mod composed;
pub mod io;
pub mod lm;
pub mod mmap;
pub mod quant;

pub use am::{AmLayout, CompressedAm};
pub use bits::{prefetch_read, BitSlice, BitWriter};
pub use bundle::{
    crc64, Bundle, BundleError, BundleWriter, SectionInfo, SectionKind, BUNDLE_MAGIC,
    BUNDLE_VERSION,
};
pub use composed::CompressedComposed;
pub use io::{ModelIoError, STATE_RECORD_BYTES};
pub use lm::{CompressedLm, LmLayout, LmLookup, MAX_BACKOFF_HOPS};
pub use mmap::Mapped;
pub use quant::WeightQuantizer;
