//! Bit-granular storage with random access.
//!
//! The compressed AM/LM layouts pack arcs at arbitrary bit offsets
//! (20/27/45/58-bit records), and the LM's binary search needs random
//! access to the *i*-th fixed-width arc of a state. [`BitWriter`]
//! appends fields LSB-first; [`BitSlice`] reads any `(offset, width)`
//! window of the serialized bytes in O(1).

/// Append-only bit stream writer.
///
/// ```
/// use unfold_compress::BitWriter;
/// let mut w = BitWriter::new();
/// w.push(0b101, 3);
/// w.push(0x3FFFF, 18);
/// let buf = w.finish();
/// assert_eq!(buf.len_bits(), 21);
/// assert_eq!(buf.size_bytes(), 3);
/// assert_eq!(buf.to_bytes().len(), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    len_bits: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far (the offset of the next push).
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    /// Panics if `width` is 0 or > 57, or if `value` has bits above
    /// `width`. (57 keeps every field within two words; all formats in
    /// this crate use ≤ 24-bit fields.)
    pub fn push(&mut self, value: u64, width: u32) {
        assert!(
            (1..=57).contains(&width),
            "push: width {width} out of range"
        );
        assert!(
            width == 64 || value < (1u64 << width),
            "push: value {value:#x} does not fit in {width} bits"
        );
        let word = (self.len_bits / 64) as usize;
        let bit = (self.len_bits % 64) as u32;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << bit;
        if bit + width > 64 {
            self.words.push(value >> (64 - bit));
        }
        self.len_bits += u64::from(width);
    }

    /// Finalizes the stream.
    pub fn finish(self) -> BitBuf {
        BitBuf {
            words: self.words,
            len_bits: self.len_bits,
        }
    }
}

/// Best-effort read-prefetch of the cache line holding `p`. A hint
/// only: never faults, never changes program behavior. Compiles to
/// `prefetcht0` on x86-64 and to nothing elsewhere.
#[inline]
pub fn prefetch_read(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it performs no memory access that
    // could fault, even on a dangling pointer.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// An immutable bit buffer.
#[derive(Debug, Clone, Default)]
pub struct BitBuf {
    words: Vec<u64>,
    len_bits: u64,
}

impl BitBuf {
    /// Length in bits.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// The backing 64-bit words (for serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Storage footprint in bytes, rounded up to whole bytes (this is
    /// what the size tables report).
    pub fn size_bytes(&self) -> u64 {
        self.len_bits.div_ceil(8)
    }

    /// The words as little-endian bytes: how the containers serialize
    /// the stream, and what [`BitSlice`] reads.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }
}

/// Random-access bit reader over raw *bytes*.
///
/// The serialized containers store the arc stream as little-endian
/// 64-bit words, so bit `i` of the stream is bit `i % 8` of byte
/// `i / 8` of the serialized section. That makes the serialized bytes
/// directly readable, wherever they live: no deserialization into a
/// `Vec<u64>` is needed, which is what lets [`crate::CompressedAm`] and
/// [`crate::CompressedLm`] decode arcs straight out of their own buffer
/// or an mmap-backed bundle alike.
///
/// ```
/// use unfold_compress::{BitSlice, BitWriter};
/// let mut w = BitWriter::new();
/// w.push(0b101, 3);
/// w.push(0x3FFFF, 18);
/// let buf = w.finish();
/// let bytes = buf.to_bytes();
/// let s = BitSlice::new(&bytes, buf.len_bits());
/// assert_eq!(s.read(0, 3), 0b101);
/// assert_eq!(s.read(3, 18), 0x3FFFF);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BitSlice<'a> {
    bytes: &'a [u8],
    len_bits: u64,
}

impl<'a> BitSlice<'a> {
    /// Wraps `bytes` holding `len_bits` valid bits.
    ///
    /// # Panics
    /// Panics if `len_bits` exceeds the slice.
    pub fn new(bytes: &'a [u8], len_bits: u64) -> Self {
        assert!(
            len_bits <= bytes.len() as u64 * 8,
            "BitSlice: {len_bits} bits exceed {} bytes",
            bytes.len()
        );
        BitSlice { bytes, len_bits }
    }

    /// Length in bits.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Reads `width` bits starting at bit `offset`.
    ///
    /// # Panics
    /// Panics if the window exceeds the buffer or `width` > 57.
    #[inline]
    pub fn read(&self, offset: u64, width: u32) -> u64 {
        assert!(
            (1..=57).contains(&width),
            "read: width {width} out of range"
        );
        assert!(
            offset + u64::from(width) <= self.len_bits,
            "read: window [{offset}, +{width}) beyond {} bits",
            self.len_bits
        );
        let byte = (offset / 8) as usize;
        let bit = (offset % 8) as u32;
        // width <= 57 and bit <= 7, so the window fits one unaligned
        // 64-bit load; zero-pad near the end of the slice.
        let mut raw = [0u8; 8];
        let take = 8.min(self.bytes.len() - byte);
        raw[..take].copy_from_slice(&self.bytes[byte..byte + take]);
        (u64::from_le_bytes(raw) >> bit) & ((1u64 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_buffer() {
        let b = BitWriter::new().finish();
        assert_eq!(b.len_bits(), 0);
        assert_eq!(b.size_bytes(), 0);
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut w = BitWriter::new();
        // 60 bits, then a 20-bit value straddling the first word.
        w.push((1u64 << 57) - 1, 57);
        w.push(0b111, 3);
        w.push(0xABCDE, 20);
        let buf = w.finish();
        let bytes = buf.to_bytes();
        let r = BitSlice::new(&bytes, buf.len_bits());
        assert_eq!(r.read(0, 57), (1u64 << 57) - 1);
        assert_eq!(r.read(57, 3), 0b111);
        assert_eq!(r.read(60, 20), 0xABCDE);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitWriter::new().push(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn read_past_end_panics() {
        let mut w = BitWriter::new();
        w.push(1, 4);
        BitSlice::new(&w.finish().to_bytes(), 4).read(2, 4);
    }

    #[test]
    fn size_rounds_up_to_bytes() {
        let mut w = BitWriter::new();
        w.push(1, 9);
        assert_eq!(w.finish().size_bytes(), 2);
    }

    #[test]
    fn bit_slice_handles_tail_windows() {
        let mut w = BitWriter::new();
        w.push(0x1FF, 9); // 2 bytes of stream, window ends mid-byte
        let buf = w.finish();
        let bytes = buf.to_bytes();
        let s = BitSlice::new(&bytes[..2], buf.len_bits());
        assert_eq!(s.read(0, 9), 0x1FF);
        assert_eq!(s.read(3, 6), 0x3F);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn bit_slice_read_past_end_panics() {
        BitSlice::new(&[0xFF], 4).read(2, 4);
    }

    proptest! {
        #[test]
        fn roundtrip_random_fields(fields in proptest::collection::vec((0u64..1u64<<24, 1u32..25), 1..200)) {
            let mut w = BitWriter::new();
            let mut offsets = Vec::new();
            for &(v, width) in &fields {
                let v = v & ((1 << width) - 1);
                offsets.push(w.len_bits());
                w.push(v, width);
            }
            let buf = w.finish();
            let bytes = buf.to_bytes();
            let r = BitSlice::new(&bytes, buf.len_bits());
            for (&(v, width), &off) in fields.iter().zip(&offsets) {
                let v = v & ((1 << width) - 1);
                prop_assert_eq!(r.read(off, width), v);
            }
        }
    }
}
