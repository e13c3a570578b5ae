//! Compressed AM format (paper Figure 5).
//!
//! "Most of the arcs have epsilon word ID ... and they point to the
//! previous, the same or the next state. For these arcs, we only store
//! the input phoneme index (12 bits), weight (6 bits) and a 2-bit tag
//! encoding destination state. ... The rest of the arcs require, in
//! addition to the aforementioned 20 bits, an 18-bit word ID and a
//! 20-bit destination state's index."
//!
//! Arcs are decoded sequentially per state (the Viterbi search always
//! explores a state's AM arcs in order, so variable-length records cost
//! nothing), with the state table providing the bit offset of each
//! state's first arc.

use unfold_wfst::{Arc, StateId, Wfst, WfstBuilder, EPSILON};

use crate::bits::{BitSlice, BitWriter};
use crate::bundle::{Bundle, BundleError, SectionKind};
use crate::io::{
    rd_f32, rd_u32, rd_u64, ByteReader, ByteWriter, Extents, ModelIoError, SectionBytes,
    AM_DEST_BITS, AM_MAGIC, FORMAT_VERSION, PDF_BITS, TAG_BITS, WEIGHT_BITS, WORD_BITS,
};
use crate::quant::WeightQuantizer;

const TAG_SELF: u64 = 0b11;
const TAG_NEXT: u64 = 0b10;
const TAG_PREV: u64 = 0b01;
const TAG_NORMAL: u64 = 0b00;

/// Short-format arc width: tag + PDF id + weight index (20 bits).
pub(crate) const SHORT_ARC_BITS: u32 = TAG_BITS + PDF_BITS + WEIGHT_BITS;
/// Full-format arc width: a short arc plus word id and destination
/// (58 bits).
pub(crate) const FULL_ARC_BITS: u32 = SHORT_ARC_BITS + WORD_BITS + AM_DEST_BITS;

/// Serialized state record: bit offset (u64), arc count (u32), final
/// flag (u32), final weight (f32). Size accounting models it at 8
/// bytes (the "bandwidth reduction scheme" state record of [34]).
const STATE_REC_BYTES: usize = 20;

/// Parsed header of a serialized `UNFA` section: everything needed to
/// decode arcs in place except the bytes themselves.
#[derive(Debug, Clone)]
pub struct AmLayout {
    num_states: usize,
    start: StateId,
    short_arcs: u64,
    normal_arcs: u64,
    quant: WeightQuantizer,
    extents: Extents,
}

impl AmLayout {
    /// Parses the header of a serialized AM, validating counts, the
    /// codebook, section bounds, and state-record sanity (monotone
    /// offsets within the stream). O(states); the arc stream is not
    /// read — binding a bundle section relies on its checksum for the
    /// payload, while [`CompressedAm::from_bytes`] adds the full
    /// structural walk.
    ///
    /// # Errors
    /// Returns [`ModelIoError`] on bad magic/version, truncation, or a
    /// structurally invalid header.
    pub fn parse(bytes: &[u8]) -> Result<AmLayout, ModelIoError> {
        let mut r = ByteReader::new(bytes);
        let num_states = r.model_head(AM_MAGIC, AM_DEST_BITS)?;
        let start = r.u32()?;
        if start as usize >= num_states {
            return Err(ModelIoError::Corrupt("start state out of range"));
        }
        let short_arcs = r.u64()?;
        let normal_arcs = r.u64()?;
        let quant = r.codebook()?;
        let extents = r.extents(num_states, STATE_REC_BYTES)?;
        // Cheap state-table sweep: offsets monotone and every block's
        // minimum extent (20 bits/arc) inside the stream.
        let (states, _) = extents.split(bytes);
        let len_bits = extents.len_bits();
        let mut prev = 0u64;
        for i in 0..num_states {
            let off = rd_u64(states, i * STATE_REC_BYTES);
            let narcs = u64::from(rd_u32(states, i * STATE_REC_BYTES + 8));
            if off < prev || off > len_bits {
                return Err(ModelIoError::Corrupt("state offsets not monotone"));
            }
            if narcs
                .checked_mul(u64::from(SHORT_ARC_BITS))
                .and_then(|n| n.checked_add(off))
                .is_none_or(|end| end > len_bits)
            {
                return Err(ModelIoError::Corrupt("arc block past end of stream"));
            }
            prev = off;
        }
        Ok(AmLayout {
            num_states,
            start,
            short_arcs,
            normal_arcs,
            quant,
            extents,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Arc-stream payload size in bytes (what mmap loading avoids
    /// copying).
    pub fn arc_stream_bytes(&self) -> usize {
        self.extents.arc_stream_bytes()
    }

    /// State-table size in bytes — the part of the section the header
    /// sweep *does* read at parse time.
    pub fn state_table_bytes(&self) -> usize {
        self.extents.state_table_bytes()
    }
}

/// An AM WFST in the compressed bit-packed format: the serialized
/// `UNFA` section bytes — in a buffer of their own or inside a shared
/// bundle, possibly memory-mapped — plus their parsed [`AmLayout`].
/// Every field is read in place; cloning shares the bytes.
#[derive(Debug, Clone)]
pub struct CompressedAm {
    bytes: SectionBytes,
    layout: AmLayout,
}

/// The per-call borrowed view: the state table and the arc stream.
struct View<'a> {
    layout: &'a AmLayout,
    states: &'a [u8],
    bits: BitSlice<'a>,
}

impl View<'_> {
    /// `(bit offset, arc count, is final, final weight)` of `s`.
    #[inline]
    fn rec(&self, s: StateId) -> (u64, u32, bool, f32) {
        let base = s as usize * STATE_REC_BYTES;
        (
            rd_u64(self.states, base),
            rd_u32(self.states, base + 8),
            rd_u32(self.states, base + 12) != 0,
            rd_f32(self.states, base + 16),
        )
    }

    fn for_each_arc(&self, s: StateId, mut f: impl FnMut(Arc, u64, u32)) {
        let (mut off, narcs, _, _) = self.rec(s);
        for _ in 0..narcs {
            let start_off = off;
            let tag = self.bits.read(off, TAG_BITS);
            let pdf = self.bits.read(off + u64::from(TAG_BITS), PDF_BITS) as u32;
            let widx =
                self.bits
                    .read(off + u64::from(TAG_BITS + PDF_BITS), WEIGHT_BITS) as u8;
            let weight = self.layout.quant.decode(widx);
            off += u64::from(SHORT_ARC_BITS);
            let (olabel, dest, width) = match tag {
                TAG_SELF => (EPSILON, s, SHORT_ARC_BITS),
                TAG_NEXT => {
                    assert!(
                        (s as usize) + 1 < self.layout.num_states,
                        "corrupt AM stream: +1 arc from last state {s}"
                    );
                    (EPSILON, s + 1, SHORT_ARC_BITS)
                }
                TAG_PREV => {
                    assert!(s != 0, "corrupt AM stream: -1 arc from state 0");
                    (EPSILON, s - 1, SHORT_ARC_BITS)
                }
                _ => {
                    let word = self.bits.read(off, WORD_BITS) as u32;
                    let dest = self.bits.read(off + u64::from(WORD_BITS), AM_DEST_BITS) as u32;
                    off += u64::from(WORD_BITS + AM_DEST_BITS);
                    (word, dest, FULL_ARC_BITS)
                }
            };
            f(Arc::new(pdf, olabel, weight, dest), start_off, width);
        }
    }

    /// The full structural walk [`AmLayout::parse`] skips — arc tags,
    /// destinations, block contiguity. O(arcs).
    fn validate(&self) -> Result<(), ModelIoError> {
        let len = self.bits.len_bits();
        let n = self.layout.num_states as u32;
        for i in 0..n {
            let (mut off, narcs, _, _) = self.rec(i);
            for _ in 0..narcs {
                if off + u64::from(SHORT_ARC_BITS) > len {
                    return Err(ModelIoError::Corrupt("arc past end of stream"));
                }
                let tag = self.bits.read(off, TAG_BITS);
                let width = u64::from(if tag == TAG_NORMAL {
                    FULL_ARC_BITS
                } else {
                    SHORT_ARC_BITS
                });
                if off + width > len {
                    return Err(ModelIoError::Corrupt("arc past end of stream"));
                }
                match tag {
                    TAG_NEXT if i + 1 >= n => {
                        return Err(ModelIoError::Corrupt("+1 arc from last state"));
                    }
                    TAG_PREV if i == 0 => {
                        return Err(ModelIoError::Corrupt("-1 arc from state 0"));
                    }
                    TAG_NORMAL => {
                        let dest_off = off + u64::from(SHORT_ARC_BITS + WORD_BITS);
                        if self.bits.read(dest_off, AM_DEST_BITS) as u32 >= n {
                            return Err(ModelIoError::Corrupt("destination out of range"));
                        }
                    }
                    _ => {}
                }
                off += width;
            }
            let next_off = if i + 1 < n { self.rec(i + 1).0 } else { len };
            if off != next_off {
                return Err(ModelIoError::Corrupt("arc blocks not contiguous"));
            }
        }
        Ok(())
    }
}

impl CompressedAm {
    /// Compresses `fst` with a `k`-cluster weight codebook.
    ///
    /// # Panics
    /// Panics if any field exceeds its bit budget: PDF ids ≥ 2^12, word
    /// ids ≥ 2^18, states ≥ 2^20 (the paper's formats; our synthetic
    /// tasks respect them), or if `fst` has no states.
    pub fn compress(fst: &Wfst, k: usize, seed: u64) -> Self {
        assert!(fst.num_states() > 0, "compress: empty AM");
        assert!(
            fst.num_states() < (1 << AM_DEST_BITS),
            "compress: {} states exceed the 20-bit destination field",
            fst.num_states()
        );
        let weights: Vec<f32> = fst
            .states()
            .flat_map(|s| fst.arcs(s).iter().map(|a| a.weight))
            .collect();
        assert!(
            k <= 64,
            "compress: the AM format stores 6-bit weight indices (k <= 64)"
        );
        let quant =
            WeightQuantizer::fit(if weights.is_empty() { &[0.0] } else { &weights }, k, seed);

        let mut w = BitWriter::new();
        let mut recs = ByteWriter::default();
        let mut short_arcs = 0u64;
        let mut normal_arcs = 0u64;
        for s in fst.states() {
            let arcs = fst.arcs(s);
            recs.u64(w.len_bits());
            recs.u32(arcs.len() as u32);
            recs.u32(u32::from(fst.final_weight(s).is_some()));
            recs.f32(fst.final_weight(s).unwrap_or(f32::INFINITY));
            for a in arcs {
                assert!(
                    a.ilabel < (1 << PDF_BITS),
                    "pdf id {} exceeds 12 bits",
                    a.ilabel
                );
                let delta = i64::from(a.nextstate) - i64::from(s);
                let tag = if a.olabel == EPSILON {
                    match delta {
                        0 => TAG_SELF,
                        1 => TAG_NEXT,
                        -1 => TAG_PREV,
                        _ => TAG_NORMAL,
                    }
                } else {
                    TAG_NORMAL
                };
                w.push(tag, TAG_BITS);
                w.push(u64::from(a.ilabel), PDF_BITS);
                w.push(u64::from(quant.encode(a.weight)), WEIGHT_BITS);
                if tag == TAG_NORMAL {
                    assert!(
                        a.olabel < (1 << WORD_BITS),
                        "word id {} exceeds 18 bits",
                        a.olabel
                    );
                    w.push(u64::from(a.olabel), WORD_BITS);
                    w.push(u64::from(a.nextstate), AM_DEST_BITS);
                    normal_arcs += 1;
                } else {
                    short_arcs += 1;
                }
            }
        }
        let mut out = ByteWriter::default();
        out.out.extend_from_slice(&AM_MAGIC);
        out.u32(FORMAT_VERSION);
        out.u32(fst.num_states() as u32);
        out.u32(fst.start());
        out.u64(short_arcs);
        out.u64(normal_arcs);
        out.codebook(&quant);
        out.out.extend(recs.out);
        out.arc_stream(&w.finish());
        let layout = AmLayout::parse(&out.out).expect("a freshly compressed AM parses");
        CompressedAm {
            bytes: SectionBytes::Owned(out.out.into()),
            layout,
        }
    }

    /// Deserializes from the `UNFA` container, validating structure
    /// (offsets, arc bounds, destinations) before returning.
    ///
    /// # Errors
    /// Returns [`ModelIoError`] on bad magic/version, truncation, or
    /// structurally invalid content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let am = CompressedAm {
            layout: AmLayout::parse(bytes)?,
            bytes: SectionBytes::Owned(bytes.into()),
        };
        am.view().validate()?;
        Ok(am)
    }

    /// Binds the AM section of a shared bundle without copying it:
    /// verifies the section checksum (once per bundle, memoized) and
    /// parses its header, O(states). The checksum pass runs here, not
    /// per decode, because every later decode is infallible: a corrupt
    /// payload must surface as this typed error, never as a mid-decode
    /// panic. Holding the model keeps the bundle (and any mapping)
    /// alive.
    ///
    /// # Errors
    /// [`BundleError::ChecksumMismatch`] on a corrupt payload, plus
    /// anything from [`Bundle::am_layout`].
    pub fn from_bundle(bundle: std::sync::Arc<Bundle>) -> Result<Self, BundleError> {
        let range = bundle.verified_range(SectionKind::Am, "am")?;
        let layout = bundle.am_layout()?;
        Ok(CompressedAm {
            bytes: SectionBytes::Bundle(bundle, range),
            layout,
        })
    }

    #[inline]
    fn view(&self) -> View<'_> {
        let (states, bits) = self.layout.extents.split(self.bytes.get());
        View {
            layout: &self.layout,
            states,
            bits,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.layout.num_states
    }

    /// Number of arcs stored in the 20-bit short format.
    pub fn short_arcs(&self) -> u64 {
        self.layout.short_arcs
    }

    /// Number of arcs stored in the 58-bit full format.
    pub fn normal_arcs(&self) -> u64 {
        self.layout.normal_arcs
    }

    /// Bit offset of the first arc of `s` (for memory-address modeling).
    pub fn state_bit_offset(&self, s: StateId) -> u64 {
        self.view().rec(s).0
    }

    /// Total compressed size in bytes: arc bit stream + 8-byte state
    /// records + the K-means centroid table.
    pub fn size_bytes(&self) -> u64 {
        self.layout.extents.len_bits().div_ceil(8)
            + self.layout.num_states as u64 * 8
            + self.layout.quant.table_bytes()
    }

    /// Start state of the original machine.
    pub fn start(&self) -> StateId {
        self.layout.start
    }

    /// Final weight of `s`, or `None` if non-final.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn final_weight(&self, s: StateId) -> Option<f32> {
        let (_, _, is_final, w) = self.view().rec(s);
        is_final.then_some(w)
    }

    /// Visits each arc of `s` with its bit offset and encoded width —
    /// the information the accelerator's Arc Issuer sees (it decodes the
    /// 2-bit tag to learn "whether it has to fetch the remaining 38 bits
    /// for the current arc, or the 20 bits for the next arc", §3.4).
    ///
    /// # Panics
    /// Panics if `s` is out of range. A bundle-bound model's bytes are
    /// checksum-verified but not walked, so a structurally invalid
    /// stream (one a buggy packer sealed with a valid CRC) panics with
    /// a diagnostic — in release builds too, never a silent index wrap.
    /// [`CompressedAm::from_bytes`] rejects such streams up front.
    pub fn for_each_arc(&self, s: StateId, f: impl FnMut(Arc, u64, u32)) {
        self.view().for_each_arc(s, f);
    }

    /// Decodes the outgoing arcs of `s`, reconstructing quantized
    /// weights from the codebook.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn decode_arcs(&self, s: StateId) -> Vec<Arc> {
        let mut out = Vec::new();
        self.for_each_arc(s, |a, _, _| out.push(a));
        out
    }

    /// Serializes to the `UNFA` container (see [`crate::io`]): a copy of
    /// the section bytes the model reads from.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.get().to_vec()
    }

    /// Fully decompresses into a [`Wfst`] (with quantized weights).
    /// Decoding against this machine is how the reproduction measures
    /// the WER impact of quantization (paper: < 0.01%).
    pub fn to_wfst(&self) -> Wfst {
        let v = self.view();
        let n = self.num_states();
        let mut b = WfstBuilder::with_states(n);
        b.set_start(self.start());
        for s in 0..n as StateId {
            if let (_, _, true, w) = v.rec(s) {
                b.set_final(s, w);
            }
        }
        for s in 0..n as StateId {
            v.for_each_arc(s, |a, _, _| b.add_arc(s, a));
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unfold_am::{build_am, HmmTopology, Lexicon};
    use unfold_wfst::SizeModel;

    fn am_fst() -> Wfst {
        build_am(&Lexicon::generate(200, 30, 5), HmmTopology::Kaldi3State).fst
    }

    #[test]
    fn roundtrip_preserves_topology() {
        let fst = am_fst();
        let comp = CompressedAm::compress(&fst, 64, 0);
        let rt = comp.to_wfst();
        assert_eq!(rt.num_states(), fst.num_states());
        assert_eq!(rt.num_arcs(), fst.num_arcs());
        assert_eq!(rt.start(), fst.start());
        for s in fst.states() {
            let orig = fst.arcs(s);
            let dec = rt.arcs(s);
            assert_eq!(orig.len(), dec.len());
            for (a, b) in orig.iter().zip(dec) {
                assert_eq!(a.ilabel, b.ilabel);
                assert_eq!(a.olabel, b.olabel);
                assert_eq!(a.nextstate, b.nextstate);
                assert!((a.weight - b.weight).abs() < 0.5, "weight error too big");
            }
            assert_eq!(fst.final_weight(s), rt.final_weight(s));
        }
    }

    #[test]
    fn majority_of_arcs_use_short_format() {
        let comp = CompressedAm::compress(&am_fst(), 64, 0);
        let total = comp.short_arcs() + comp.normal_arcs();
        assert!(
            comp.short_arcs() as f64 / total as f64 > 0.6,
            "short fraction {}",
            comp.short_arcs() as f64 / total as f64
        );
    }

    #[test]
    fn compression_ratio_is_large() {
        // Uncompressed: 128 bits/arc. Compressed: ~20 bits for most arcs
        // plus 64-bit state records. The paper's compression factor for
        // the split datasets is ~3x (Table 1 → Table 2); our lexicon
        // trie has a lower arc/state ratio than a production AM, so we
        // assert a slightly looser bound.
        let fst = am_fst();
        let comp = CompressedAm::compress(&fst, 64, 0);
        let ratio = SizeModel::UNCOMPRESSED.bytes(&fst) as f64 / comp.size_bytes() as f64;
        assert!(ratio > 2.5, "ratio {ratio}");
    }

    #[test]
    fn bit_offsets_monotone() {
        let comp = CompressedAm::compress(&am_fst(), 64, 0);
        for s in 1..comp.num_states() as StateId {
            assert!(comp.state_bit_offset(s) >= comp.state_bit_offset(s - 1));
        }
    }

    #[test]
    fn weights_come_from_codebook() {
        let fst = am_fst();
        let comp = CompressedAm::compress(&fst, 4, 0); // aggressive: 4 clusters
        let rt = comp.to_wfst();
        let mut distinct = std::collections::HashSet::new();
        for s in rt.states() {
            for a in rt.arcs(s) {
                distinct.insert(a.weight.to_bits());
            }
        }
        assert!(distinct.len() <= 4, "{} distinct weights", distinct.len());
    }

    #[test]
    fn for_each_arc_reports_widths() {
        let fst = am_fst();
        let comp = CompressedAm::compress(&fst, 64, 0);
        for s in (0..comp.num_states() as StateId).step_by(37) {
            let mut prev_end = comp.state_bit_offset(s);
            comp.for_each_arc(s, |a, off, width| {
                assert_eq!(off, prev_end, "arcs must be contiguous");
                assert!(width == 20 || width == 58);
                if width == 58 {
                    // Full-format arcs are exactly the non-local or
                    // cross-word ones.
                    assert!(
                        a.olabel != unfold_wfst::EPSILON
                            || (i64::from(a.nextstate) - i64::from(s)).abs() > 1
                    );
                }
                prev_end = off + u64::from(width);
            });
        }
    }

    #[test]
    fn byte_serialization_roundtrips_exactly() {
        let fst = am_fst();
        let comp = CompressedAm::compress(&fst, 64, 0);
        let bytes = comp.to_bytes();
        let back = CompressedAm::from_bytes(&bytes).expect("valid container");
        assert_eq!(back.num_states(), comp.num_states());
        assert_eq!(back.short_arcs(), comp.short_arcs());
        for s in (0..comp.num_states() as StateId).step_by(17) {
            assert_eq!(back.decode_arcs(s), comp.decode_arcs(s));
            assert_eq!(back.final_weight(s), comp.final_weight(s));
        }
        assert_eq!(back.to_bytes(), bytes, "re-serialization must be identical");
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_panicked() {
        use crate::io::ModelIoError;
        let comp = CompressedAm::compress(&am_fst(), 64, 0);
        let good = comp.to_bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(
            CompressedAm::from_bytes(&bad).unwrap_err(),
            ModelIoError::BadMagic
        );
        assert_eq!(AmLayout::parse(&bad).unwrap_err(), ModelIoError::BadMagic);
        // Truncated.
        assert_eq!(
            CompressedAm::from_bytes(&good[..good.len() / 2]).unwrap_err(),
            ModelIoError::Truncated
        );
        assert_eq!(
            AmLayout::parse(&good[..good.len() / 2]).unwrap_err(),
            ModelIoError::Truncated
        );
        // Flip a state record's bit offset: contiguity validation must
        // surface a structural error, never a panic.
        // Header = 36 bytes with the cluster count k at bytes 32..36;
        // codebook = k * 4; state records are 20 bytes each, offset
        // first.
        let mut flipped = good.clone();
        let k = u32::from_le_bytes(good[32..36].try_into().unwrap()) as usize;
        let state1_offset = 36 + k * 4 + 20;
        flipped[state1_offset] ^= 0xFF;
        assert!(CompressedAm::from_bytes(&flipped).is_err());
    }

    #[test]
    fn full_load_also_checks_what_the_header_parse_defers() {
        // Re-tag state 0's first arc as "-1": the state table is
        // untouched, so the header parse accepts the bytes, but the one
        // deep validator `from_bytes` runs rejects them.
        let comp = CompressedAm::compress(&am_fst(), 64, 0);
        let mut bytes = comp.to_bytes();
        let stream = bytes.len() - comp.layout.arc_stream_bytes();
        let off = comp.state_bit_offset(0);
        for b in off..off + u64::from(TAG_BITS) {
            let bit = ((TAG_PREV >> (b - off)) & 1) as u8;
            let byte = &mut bytes[stream + (b / 8) as usize];
            *byte = (*byte & !(1 << (b % 8))) | (bit << (b % 8));
        }
        assert!(AmLayout::parse(&bytes).is_ok());
        assert_eq!(
            CompressedAm::from_bytes(&bytes).unwrap_err(),
            ModelIoError::Corrupt("-1 arc from state 0")
        );
    }

    #[test]
    fn ctc_graph_also_roundtrips() {
        let fst = build_am(&Lexicon::generate(80, 25, 9), HmmTopology::Ctc).fst;
        let comp = CompressedAm::compress(&fst, 64, 1);
        let rt = comp.to_wfst();
        assert_eq!(rt.num_arcs(), fst.num_arcs());
    }
}
