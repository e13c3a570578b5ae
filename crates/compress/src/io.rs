//! Section formats of the compressed models.
//!
//! UNFOLD's deployment story is "ship tens of megabytes instead of a
//! gigabyte" (§5.3: wearables with ≤1 GB of memory); that needs the
//! compressed AM/LM to exist as bytes on disk. They do so as the `UNFA`
//! and `UNFL` sections of one `.unfb` bundle ([`crate::bundle`]). This
//! module defines a section's little-endian layout: magic + version,
//! the arc-field widths, the K-means codebook, the state table of
//! [`STATE_RECORD_BYTES`]-byte records, and the raw arc bit stream
//! with its zero tail padding. Round-trips are exact (bit-for-bit),
//! and binding a section checks its structure rather than trusting
//! the bytes.
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
/// Section format version. Version 2 stores the paper's 8-byte state
/// records, records the arc-field widths in each header, and pads the
/// arc stream's tail; a version-1 section is refused.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of one serialized state record, AM and LM alike: the paper's
/// record (§3.4, the bandwidth-reduction scheme of its reference 34),
/// a 32-bit first-arc bit offset, a 16-bit arc count and a 16-bit slot
/// whose meaning is the section's. `size_bytes()` counts it, and the
/// simulator's address model fetches it.
pub const STATE_RECORD_BYTES: usize = 8;

/// Zero bytes after every arc stream's last word, so that a 16-byte
/// window at any arc's byte offset is in bounds.
pub(crate) const ARC_TAIL_PAD_BYTES: usize = 16;

/// Bytes of the arc-field width block in a section header: one byte a
/// width, zero-filled.
const WIDTH_BLOCK_BYTES: usize = 8;

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

/// The arc-field widths an `UNFA` header records, in order, each with
/// the error that names it: tag, PDF, weight, word, destination.
pub(crate) const AM_WIDTHS: [(u32, &str); 5] = [
    (TAG_BITS, "tag width is not the format's"),
    (PDF_BITS, "pdf width is not the format's"),
    (WEIGHT_BITS, "weight width is not the format's"),
    (WORD_BITS, "word width is not the format's"),
    (AM_DEST_BITS, "destination width is not the format's"),
];

/// The arc-field widths an `UNFL` header records, in order: weight,
/// word, destination.
pub(crate) const LM_WIDTHS: [(u32, &str); 3] = [
    (WEIGHT_BITS, "weight width is not the format's"),
    (WORD_BITS, "word width is not the format's"),
    (LM_DEST_BITS, "destination width is not the format's"),
];

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

/// State record `s` of `states`, a state table: `(first-arc bit
/// offset, arc count, slot)`, read with one 8-byte load.
#[inline]
pub(crate) fn rd_rec(states: &[u8], s: u32) -> (u32, u16, u16) {
    let base = s as usize * STATE_RECORD_BYTES;
    let rec = u64::from_le_bytes(
        states[base..base + STATE_RECORD_BYTES]
            .try_into()
            .expect("8 bytes"),
    );
    (rec as u32, (rec >> 32) as u16, (rec >> 48) as u16)
}

/// The first-arc offset of state `s`, whose arcs start at bit `bits`
/// of the stream, as its record stores it.
///
/// # Panics
/// Panics if `bits` does not fit the record's 32-bit offset.
pub(crate) fn rec_offset(bits: u64, s: u32) -> u32 {
    u32::try_from(bits).unwrap_or_else(|_| {
        panic!("compress: state {s} starts at bit {bits}, past the 32-bit state offset")
    })
}

/// The arc count of state `s` as its record stores it.
///
/// # Panics
/// Panics if `n` does not fit the record's 16-bit count.
pub(crate) fn rec_count(n: usize, s: u32) -> u16 {
    u16::try_from(n)
        .unwrap_or_else(|_| panic!("compress: state {s} has {n} arcs, past the 16-bit count"))
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

    /// The next `n` bytes' range in the buffer, skipped.
    pub(crate) fn span(&mut self, n: usize) -> Result<Range<usize>, ModelIoError> {
        let start = self.pos;
        self.take(n)?;
        Ok(start..self.pos)
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

    /// The arc-field width block: each of `want`'s widths in order, then
    /// zeros. A width other than the format's is refused with the error
    /// naming its field.
    pub(crate) fn widths(&mut self, want: &[(u32, &'static str)]) -> Result<(), ModelIoError> {
        let block = self.take(WIDTH_BLOCK_BYTES)?;
        for (&got, &(width, field)) in block.iter().zip(want) {
            if u32::from(got) != width {
                return Err(ModelIoError::Corrupt(field));
            }
        }
        if block[want.len()..].iter().any(|&b| b != 0) {
            return Err(ModelIoError::Corrupt("reserved width bytes not zero"));
        }
        Ok(())
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

    /// The tail every model section ends with: `num_states` state
    /// records, then the arc stream (bit length, word count,
    /// little-endian words, [`ARC_TAIL_PAD_BYTES`] zero bytes), then
    /// nothing. Locates both without reading them; only the padding is
    /// read, to check it is there and zero.
    pub(crate) fn extents(&mut self, num_states: usize) -> Result<Extents, ModelIoError> {
        let states = self.span(
            num_states
                .checked_mul(STATE_RECORD_BYTES)
                .ok_or(ModelIoError::Truncated)?,
        )?;
        let len_bits = self.u64()?;
        let num_words = self.u32()? as usize;
        if len_bits > num_words as u64 * 64 {
            return Err(ModelIoError::Corrupt("bit length exceeds words"));
        }
        let start = self.pos;
        self.take(num_words.checked_mul(8).ok_or(ModelIoError::Truncated)?)?;
        let pad = self
            .take(ARC_TAIL_PAD_BYTES)
            .map_err(|_| ModelIoError::Corrupt("arc stream tail padding missing"))?;
        if pad.iter().any(|&b| b != 0) {
            return Err(ModelIoError::Corrupt("arc stream tail padding not zero"));
        }
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

/// Byte ranges of a parsed section's state table and arc stream (its
/// tail padding included).
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

    /// What the paper counts of a section (`size_bytes()`): the state
    /// table, the arc stream's bits rounded up to whole bytes, and
    /// `codebook_bytes` of centroids.
    pub(crate) fn size_bytes(&self, codebook_bytes: u64) -> u64 {
        self.states.len() as u64 + self.len_bits.div_ceil(8) + codebook_bytes
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

    /// One state record, as [`rd_rec`] reads it.
    pub(crate) fn rec(&mut self, offset: u32, count: u16, slot: u16) {
        self.u32(offset);
        self.out.extend_from_slice(&count.to_le_bytes());
        self.out.extend_from_slice(&slot.to_le_bytes());
    }

    /// Inverse of [`ByteReader::widths`].
    pub(crate) fn widths(&mut self, widths: &[(u32, &str)]) {
        let mut block = [0u8; WIDTH_BLOCK_BYTES];
        for (b, &(width, _)) in block.iter_mut().zip(widths) {
            *b = width as u8;
        }
        self.out.extend_from_slice(&block);
    }

    /// Inverse of [`ByteReader::codebook`].
    pub(crate) fn codebook(&mut self, quant: &WeightQuantizer) {
        self.u32(quant.num_clusters() as u32);
        for &c in quant.centroids() {
            self.f32(c);
        }
    }

    /// The arc stream as [`ByteReader::extents`] expects it, tail
    /// padding included.
    pub(crate) fn arc_stream(&mut self, bits: &BitBuf) {
        self.u64(bits.len_bits());
        self.u32(bits.words().len() as u32);
        self.out.extend(bits.to_bytes());
        self.out.extend_from_slice(&[0; ARC_TAIL_PAD_BYTES]);
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
    #[should_panic(
        expected = "compress: state 9 starts at bit 4294967296, past the 32-bit state offset"
    )]
    fn a_state_offset_past_32_bits_is_refused() {
        // Both models' `compress` store offsets through this check; an
        // arc stream of 2^32 bits is 512 MiB, so it is driven directly.
        rec_offset(1 << 32, 9);
    }

    #[test]
    fn records_round_trip() {
        let mut w = ByteWriter::default();
        w.rec(0xDEAD_BEEF, 0xABCD, 0x8001);
        assert_eq!(w.out.len(), STATE_RECORD_BYTES);
        assert_eq!(rd_rec(&w.out, 0), (0xDEAD_BEEF, 0xABCD, 0x8001));
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

        /// `magic`, the current version, the first four bytes of
        /// `garbage` as the state count, the section's width block, then
        /// the rest of `garbage`.
        fn headed(magic: [u8; 4], widths: &[(u32, &str)], garbage: &[u8]) -> Vec<u8> {
            let mut w = super::ByteWriter::default();
            w.out.extend_from_slice(&magic);
            w.u32(super::FORMAT_VERSION);
            let (count, rest) = garbage.split_at(garbage.len().min(4));
            w.out.extend_from_slice(count);
            w.widths(widths);
            w.out.extend_from_slice(rest);
            w.out
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

            /// Same with a valid magic, version and width block around
            /// the garbage state count (reaches deeper code paths).
            #[test]
            fn magic_prefixed_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
                check(&headed(super::AM_MAGIC, &super::AM_WIDTHS, &bytes));
                check(&headed(super::LM_MAGIC, &super::LM_WIDTHS, &bytes));
            }

            #[test]
            fn magic_prefixed_garbage_never_panics_layout_parsers(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
                let _ = AmLayout::parse(&headed(super::AM_MAGIC, &super::AM_WIDTHS, &bytes));
                let _ = LmLayout::parse(&headed(super::LM_MAGIC, &super::LM_WIDTHS, &bytes));
            }
        }
    }
}
