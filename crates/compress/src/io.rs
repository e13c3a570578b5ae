//! Section formats of the compressed models.
//!
//! UNFOLD's deployment story is "ship tens of megabytes instead of a
//! gigabyte" (§5.3: wearables with ≤1 GB of memory); that needs the
//! compressed AM/LM to exist as bytes on disk. They do so as the `UNFA`
//! and `UNFL` sections of one `.unfb` bundle ([`crate::bundle`]). This
//! module defines a section's little-endian layout: magic + version,
//! the state table, the K-means codebook, and the raw arc bit stream.
//! Round-trips are exact (bit-for-bit), and binding a section checks
//! its structure rather than trusting the bytes.
//!
//! The serialized bytes *are* the in-memory model: a compressed model
//! is its section bytes plus a parsed header, reading every field in
//! place. `SectionBytes` is the storage handle that holds them.

use std::ops::Range;
use std::sync::Arc;

use crate::bits::{BitBuf, BitSlice};
use crate::bundle::Bundle;
use crate::quant::WeightQuantizer;

/// Magic of a compressed-AM section.
pub const AM_MAGIC: [u8; 4] = *b"UNFA";
/// Magic of a compressed-LM section.
pub const LM_MAGIC: [u8; 4] = *b"UNFL";
/// Section format version.
pub const FORMAT_VERSION: u32 = 1;

// Arc-record field widths of the §3.4 formats, each spelled once.
/// K-means weight index (64 clusters).
pub(crate) const WEIGHT_BITS: u32 = 6;
/// Word id, in AM full-format arcs and LM regular arcs.
pub(crate) const WORD_BITS: u32 = 18;
/// AM input label (PDF id).
pub(crate) const PDF_BITS: u32 = 12;
/// AM destination-locality tag (self / +1 / -1 / explicit).
pub(crate) const TAG_BITS: u32 = 2;
/// AM explicit destination state.
pub(crate) const AM_DEST_BITS: u32 = 20;
/// LM destination state.
pub(crate) const LM_DEST_BITS: u32 = 21;

/// Where a compressed model's serialized section lives: a buffer of
/// its own (`compress`), or a range of a ref-counted
/// bundle whose bytes may be a read-only file mapping (`from_bundle`).
/// Cloning shares the bytes.
#[derive(Clone)]
pub(crate) enum SectionBytes {
    Owned(Arc<[u8]>),
    Bundle(Arc<Bundle>, Range<usize>),
}

impl SectionBytes {
    #[inline]
    pub(crate) fn get(&self) -> &[u8] {
        match self {
            SectionBytes::Owned(b) => b,
            SectionBytes::Bundle(b, r) => &b.bytes()[r.clone()],
        }
    }
}

impl std::fmt::Debug for SectionBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SectionBytes::Owned(b) => write!(f, "Owned({} bytes)", b.len()),
            SectionBytes::Bundle(b, r) => write!(f, "Bundle({r:?}, mapped: {})", b.is_mapped()),
        }
    }
}

#[inline]
pub(crate) fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

#[inline]
pub(crate) fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

#[inline]
pub(crate) fn rd_f32(b: &[u8], off: usize) -> f32 {
    f32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

/// Errors from parsing or walking a serialized model section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelIoError {
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// Structurally invalid content.
    Corrupt(&'static str),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::BadMagic => write!(f, "bad magic bytes"),
            ModelIoError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            ModelIoError::Truncated => write!(f, "buffer truncated"),
            ModelIoError::Corrupt(what) => write!(f, "corrupt model: {what}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

/// Little-endian byte cursor used by the model loaders.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ModelIoError> {
        if self.pos + n > self.buf.len() {
            return Err(ModelIoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ModelIoError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ModelIoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, ModelIoError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Magic, version, and a state count in `1..2^dest_bits` — the head
    /// of every model section.
    pub(crate) fn model_head(
        &mut self,
        magic: [u8; 4],
        dest_bits: u32,
    ) -> Result<usize, ModelIoError> {
        if self.take(4)? != magic {
            return Err(ModelIoError::BadMagic);
        }
        let version = self.u32()?;
        if version != FORMAT_VERSION {
            return Err(ModelIoError::BadVersion(version));
        }
        let num_states = self.u32()? as usize;
        if num_states == 0 || num_states >= (1 << dest_bits) {
            return Err(ModelIoError::Corrupt("state count out of range"));
        }
        Ok(num_states)
    }

    /// A sorted K-means codebook of 1..=64 centroids.
    pub(crate) fn codebook(&mut self) -> Result<WeightQuantizer, ModelIoError> {
        let k = self.u32()? as usize;
        if k == 0 || k > 64 {
            return Err(ModelIoError::Corrupt("cluster count out of range"));
        }
        let mut centroids = Vec::with_capacity(k);
        for _ in 0..k {
            centroids.push(self.f32()?);
        }
        if !centroids.windows(2).all(|w| w[0] <= w[1]) {
            return Err(ModelIoError::Corrupt("codebook not sorted"));
        }
        Ok(WeightQuantizer::from_centroids(centroids))
    }

    /// The tail every model section ends with: `num_states` records of
    /// `rec_bytes` each, then the arc stream (bit length, word count,
    /// little-endian words), then nothing. Locates both without
    /// reading them.
    pub(crate) fn extents(
        &mut self,
        num_states: usize,
        rec_bytes: usize,
    ) -> Result<Extents, ModelIoError> {
        let start = self.pos;
        self.take(
            num_states
                .checked_mul(rec_bytes)
                .ok_or(ModelIoError::Truncated)?,
        )?;
        let states = start..self.pos;
        let len_bits = self.u64()?;
        let num_words = self.u32()? as usize;
        if len_bits > num_words as u64 * 64 {
            return Err(ModelIoError::Corrupt("bit length exceeds words"));
        }
        let start = self.pos;
        self.take(num_words.checked_mul(8).ok_or(ModelIoError::Truncated)?)?;
        if !self.done() {
            return Err(ModelIoError::Corrupt("trailing bytes"));
        }
        Ok(Extents {
            states,
            bits: start..self.pos,
            len_bits,
        })
    }
}

/// Byte ranges of a parsed section's state table and arc stream.
#[derive(Debug, Clone)]
pub(crate) struct Extents {
    states: Range<usize>,
    bits: Range<usize>,
    len_bits: u64,
}

impl Extents {
    /// The state table and the arc stream within `bytes`, the section
    /// these extents were parsed from.
    #[inline]
    pub(crate) fn split<'a>(&self, bytes: &'a [u8]) -> (&'a [u8], BitSlice<'a>) {
        (
            &bytes[self.states.clone()],
            BitSlice::new(&bytes[self.bits.clone()], self.len_bits),
        )
    }

    pub(crate) fn state_table_bytes(&self) -> usize {
        self.states.len()
    }

    pub(crate) fn arc_stream_bytes(&self) -> usize {
        self.bits.len()
    }

    pub(crate) fn len_bits(&self) -> u64 {
        self.len_bits
    }
}

/// Little-endian byte sink used by the model writers.
#[derive(Default)]
pub(crate) struct ByteWriter {
    pub(crate) out: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Inverse of [`ByteReader::codebook`].
    pub(crate) fn codebook(&mut self, quant: &WeightQuantizer) {
        self.u32(quant.num_clusters() as u32);
        for &c in quant.centroids() {
            self.f32(c);
        }
    }

    /// The arc stream as [`ByteReader::extents`] expects it.
    pub(crate) fn arc_stream(&mut self, bits: &BitBuf) {
        self.u64(bits.len_bits());
        self.u32(bits.words().len() as u32);
        self.out.extend(bits.to_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_primitives() {
        let mut w = ByteWriter::default();
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.f32(1.5);
        let mut r = ByteReader::new(&w.out);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert!(r.done());
    }

    #[test]
    fn truncation_detected() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err(), ModelIoError::Truncated);
    }

    #[test]
    fn error_messages() {
        assert!(ModelIoError::BadMagic.to_string().contains("magic"));
        assert!(ModelIoError::BadVersion(9).to_string().contains('9'));
        assert!(ModelIoError::Corrupt("x").to_string().contains('x'));
    }

    mod fuzz {
        use crate::{AmLayout, LmLayout};
        use proptest::prelude::*;

        /// What binding a section runs on its bytes: the header parse,
        /// then the structural walk.
        fn check(bytes: &[u8]) {
            let _ = AmLayout::parse(bytes).and_then(|l| l.walk(bytes));
            let _ = LmLayout::parse(bytes).and_then(|l| l.walk(bytes));
        }

        proptest! {
            /// Arbitrary bytes must produce an error, never a panic or a
            /// structurally unsound model.
            #[test]
            fn random_bytes_never_panic_loaders(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
                check(&bytes);
            }

            /// The same for the header parse alone.
            #[test]
            fn random_bytes_never_panic_layout_parsers(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
                let _ = AmLayout::parse(&bytes);
                let _ = LmLayout::parse(&bytes);
            }

            /// Same with a valid magic prefix (reaches deeper code paths).
            #[test]
            fn magic_prefixed_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
                let mut am = super::AM_MAGIC.to_vec();
                am.extend_from_slice(&1u32.to_le_bytes());
                am.extend_from_slice(&bytes);
                check(&am);
                let mut lm = super::LM_MAGIC.to_vec();
                lm.extend_from_slice(&1u32.to_le_bytes());
                lm.extend_from_slice(&bytes);
                check(&lm);
            }

            #[test]
            fn magic_prefixed_garbage_never_panics_layout_parsers(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
                let mut am = super::AM_MAGIC.to_vec();
                am.extend_from_slice(&1u32.to_le_bytes());
                am.extend_from_slice(&bytes);
                let _ = AmLayout::parse(&am);
                let mut lm = super::LM_MAGIC.to_vec();
                lm.extend_from_slice(&1u32.to_le_bytes());
                lm.extend_from_slice(&bytes);
                let _ = LmLayout::parse(&lm);
            }
        }
    }
}
