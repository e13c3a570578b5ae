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
//!
//! A state record is the paper's 8 bytes (§3.4, the scheme of its
//! reference 34): a u32 first-arc bit offset, a u16 arc count and a
//! u16 slot. The slot's low 15 bits index an exact f32 final-weight
//! table in the section header (`0x7FFF` for a non-final state); its
//! top bit says whether the state has an ε-input arc, which the
//! decoder's ε-closure reads instead of scanning the arcs.

use std::collections::HashMap;
use std::ops::Range;

use unfold_wfst::{Arc, StateId, Wfst, WfstBuilder, EPSILON};

use crate::bits::{BitSlice, BitWriter};
use crate::bundle::{Bundle, BundleError, SectionKind};
use crate::io::{
    rd_f32, rd_rec, rec_count, rec_offset, ByteReader, ByteWriter, Extents, ModelIoError,
    SectionBytes, AM_DEST_BITS, AM_MAGIC, AM_WIDTHS, FORMAT_VERSION, PDF_BITS, TAG_BITS,
    WEIGHT_BITS, WORD_BITS,
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

/// Slot value of a non-final state; also the final-weight table's
/// length bound, so every index below it fits the slot's 15 bits.
const NOT_FINAL: u16 = 0x7FFF;
/// Slot bit set when the state has an ε-input arc.
const EPS_BIT: u16 = 0x8000;

/// Parsed header of a serialized `UNFA` section: everything needed to
/// decode arcs in place except the bytes themselves.
#[derive(Debug, Clone)]
pub struct AmLayout {
    num_states: usize,
    start: StateId,
    short_arcs: u64,
    normal_arcs: u64,
    quant: WeightQuantizer,
    /// Byte range of the final-weight table: one exact f32 per slot
    /// index.
    finals: Range<usize>,
    extents: Extents,
    /// Largest PDF id on any arc, recorded by the structural walk (0
    /// in a header-only parse).
    max_pdf: u32,
}

impl AmLayout {
    /// Parses the header of a serialized AM, validating counts, the
    /// codebook and section bounds. Neither the state table nor the arc
    /// stream is read: binding a model ([`CompressedAm::from_bundle`])
    /// adds the structural walk over both.
    ///
    /// # Errors
    /// Returns [`ModelIoError`] on bad magic/version, truncation, or a
    /// structurally invalid header.
    pub fn parse(bytes: &[u8]) -> Result<AmLayout, ModelIoError> {
        let mut r = ByteReader::new(bytes);
        let num_states = r.model_head(AM_MAGIC, AM_DEST_BITS)?;
        r.widths(&AM_WIDTHS)?;
        let start = r.u32()?;
        if start as usize >= num_states {
            return Err(ModelIoError::Corrupt("start state out of range"));
        }
        let short_arcs = r.u64()?;
        let normal_arcs = r.u64()?;
        let quant = r.codebook()?;
        let num_finals = r.u32()? as usize;
        if num_finals > usize::from(NOT_FINAL) {
            return Err(ModelIoError::Corrupt("final-weight table too long"));
        }
        let finals = r.span(num_finals * 4)?;
        let extents = r.extents(num_states)?;
        Ok(AmLayout {
            num_states,
            start,
            short_arcs,
            normal_arcs,
            quant,
            finals,
            extents,
            max_pdf: 0,
        })
    }

    /// `bytes`, the section this layout was parsed from, read through
    /// it.
    #[inline]
    fn view<'a>(&'a self, bytes: &'a [u8]) -> View<'a> {
        let (states, bits) = self.extents.split(bytes);
        View {
            layout: self,
            states,
            finals: &bytes[self.finals.clone()],
            bits,
        }
    }

    /// The structural walk [`AmLayout::parse`] skips, over `bytes`, the
    /// section this layout was parsed from; returns the largest PDF id.
    pub(crate) fn walk(&self, bytes: &[u8]) -> Result<u32, ModelIoError> {
        self.view(bytes).walk()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Arc-stream payload size in bytes, its zero tail padding
    /// included: the section's last bytes (what mmap loading avoids
    /// copying).
    pub fn arc_stream_bytes(&self) -> usize {
        self.extents.arc_stream_bytes()
    }

    /// State-table size in bytes: [`crate::STATE_RECORD_BYTES`] a
    /// state.
    pub fn state_table_bytes(&self) -> usize {
        self.extents.state_table_bytes()
    }

    /// Entries of the final-weight table (one per distinct final
    /// weight).
    pub fn num_final_weights(&self) -> usize {
        self.finals.len() / 4
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

/// The per-call borrowed view: the state table, the final-weight
/// table and the arc stream.
struct View<'a> {
    layout: &'a AmLayout,
    states: &'a [u8],
    finals: &'a [u8],
    bits: BitSlice<'a>,
}

impl View<'_> {
    /// `(bit offset, arc count, slot)` of `s`.
    #[inline]
    fn rec(&self, s: StateId) -> (u64, u32, u16) {
        let (off, narcs, slot) = rd_rec(self.states, s);
        (u64::from(off), u32::from(narcs), slot)
    }

    /// The final weight a slot names, or `None` for [`NOT_FINAL`].
    #[inline]
    fn final_weight(&self, slot: u16) -> Option<f32> {
        let index = slot & !EPS_BIT;
        (index != NOT_FINAL).then(|| rd_f32(self.finals, usize::from(index) * 4))
    }

    fn for_each_arc(&self, s: StateId, mut f: impl FnMut(Arc, u64, u32)) {
        let (mut off, narcs, _) = self.rec(s);
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
                // The walk proved ±1 arcs stay inside the state range.
                TAG_NEXT => (EPSILON, s + 1, SHORT_ARC_BITS),
                TAG_PREV => (EPSILON, s - 1, SHORT_ARC_BITS),
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

    /// The structural walk [`AmLayout::parse`] skips — state offsets,
    /// arc tags, destinations, weight indices, block contiguity, final
    /// slots inside the final-weight table, and ε bits that match the
    /// arcs — proving every read [`View::for_each_arc`] and
    /// [`View::final_weight`] make. Returns the largest PDF id on any
    /// arc. O(states + arcs).
    fn walk(&self) -> Result<u32, ModelIoError> {
        let len = self.bits.len_bits();
        let n = self.layout.num_states as u32;
        // Any 6-bit index names a centroid of a full codebook, so only
        // a smaller one costs a read per arc.
        let clusters = self.layout.quant.num_clusters() as u64;
        let check_weights = clusters < 1 << WEIGHT_BITS;
        let bad_weight = |off: u64| check_weights && self.bits.read(off, WEIGHT_BITS) >= clusters;
        let num_finals = (self.finals.len() / 4) as u16;
        let mut max_pdf = 0u32;
        for i in 0..n {
            let (mut off, narcs, slot) = self.rec(i);
            let index = slot & !EPS_BIT;
            if index >= num_finals && index != NOT_FINAL {
                return Err(ModelIoError::Corrupt(
                    "final slot past the final-weight table",
                ));
            }
            let mut has_eps = false;
            // Bounded offsets keep the sums below from overflowing; each
            // block ending where the next begins (checked below) keeps
            // them in order.
            if off > len {
                return Err(ModelIoError::Corrupt("arc past end of stream"));
            }
            for _ in 0..narcs {
                if off + u64::from(SHORT_ARC_BITS) > len {
                    return Err(ModelIoError::Corrupt("arc past end of stream"));
                }
                // The tag and the PDF id are adjacent: one read.
                let head = self.bits.read(off, TAG_BITS + PDF_BITS);
                let tag = head & ((1 << TAG_BITS) - 1);
                let pdf = (head >> TAG_BITS) as u32;
                max_pdf = max_pdf.max(pdf);
                has_eps |= pdf == EPSILON;
                if bad_weight(off + u64::from(TAG_BITS + PDF_BITS)) {
                    return Err(ModelIoError::Corrupt("weight index past the codebook"));
                }
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
            match (has_eps, slot & EPS_BIT != 0) {
                (false, true) => {
                    return Err(ModelIoError::Corrupt(
                        "epsilon bit set on a state without epsilon arcs",
                    ));
                }
                (true, false) => {
                    return Err(ModelIoError::Corrupt(
                        "epsilon bit clear on a state with an epsilon arc",
                    ));
                }
                _ => {}
            }
        }
        Ok(max_pdf)
    }
}

impl CompressedAm {
    /// Compresses `fst` with a `k`-cluster weight codebook.
    ///
    /// # Panics
    /// Panics if any field exceeds its bit budget: PDF ids ≥ 2^12, word
    /// ids ≥ 2^18, states ≥ 2^20 (the paper's formats; our synthetic
    /// tasks respect them), a state with more than 65 535 arcs (the
    /// record's u16 count), an arc stream past 2^32 bits (its u32
    /// offset), or more than 32 767 distinct final weights (its 15-bit
    /// slot); or if `fst` has no states.
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
        let mut finals = Vec::new();
        let mut slots = HashMap::new();
        let mut short_arcs = 0u64;
        let mut normal_arcs = 0u64;
        for s in fst.states() {
            let arcs = fst.arcs(s);
            let mut slot = fst.final_weight(s).map_or(NOT_FINAL, |weight| {
                *slots.entry(weight.to_bits()).or_insert_with(|| {
                    assert!(
                        finals.len() < usize::from(NOT_FINAL),
                        "compress: more than {NOT_FINAL} distinct final weights, past the 15-bit slot"
                    );
                    finals.push(weight);
                    finals.len() as u16 - 1
                })
            });
            if arcs.iter().any(|a| a.ilabel == EPSILON) {
                slot |= EPS_BIT;
            }
            recs.rec(rec_offset(w.len_bits(), s), rec_count(arcs.len(), s), slot);
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
        out.widths(&AM_WIDTHS);
        out.u32(fst.start());
        out.u64(short_arcs);
        out.u64(normal_arcs);
        out.codebook(&quant);
        out.u32(finals.len() as u32);
        for &weight in &finals {
            out.f32(weight);
        }
        out.out.extend(recs.out);
        out.arc_stream(&w.finish());
        let mut layout = AmLayout::parse(&out.out).expect("a freshly compressed AM parses");
        layout.max_pdf = layout
            .walk(&out.out)
            .expect("a freshly compressed AM is well formed");
        CompressedAm {
            bytes: SectionBytes::Owned(out.out.into()),
            layout,
        }
    }

    /// Binds the AM section of a shared bundle without copying it:
    /// verifies the section checksum, parses its header, and walks
    /// every arc once — tags, destinations, weight indices, block
    /// contiguity — recording the largest PDF id. The checksum and the
    /// walk each run once per bundle (memoized), here rather than per
    /// decode, because every later decode is infallible: a corrupt or
    /// structurally bad payload must surface as this typed error,
    /// never as a mid-decode panic. Holding the model keeps the bundle
    /// (and any mapping) alive.
    ///
    /// # Errors
    /// [`BundleError::ChecksumMismatch`] on a corrupt payload,
    /// [`BundleError::Model`] on a structurally invalid one, plus
    /// anything from [`Bundle::am_layout`].
    pub fn from_bundle(bundle: std::sync::Arc<Bundle>) -> Result<Self, BundleError> {
        let range = bundle.verified_range(SectionKind::Am, "am")?;
        let mut layout = bundle.am_layout()?;
        layout.max_pdf = bundle.walked(SectionKind::Am, "am", |bytes| layout.walk(bytes))?;
        Ok(CompressedAm {
            bytes: SectionBytes::Bundle(bundle, range),
            layout,
        })
    }

    #[inline]
    fn view(&self) -> View<'_> {
        self.layout.view(self.bytes.get())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.layout.num_states
    }

    /// Largest PDF id on any arc (0 if every arc is ε-input): the
    /// narrowest score row this AM decodes. Recorded by the structural
    /// walk at bind or compression, so reading it is O(1).
    pub fn max_pdf(&self) -> u32 {
        self.layout.max_pdf
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

    /// Total compressed size in bytes, as the paper counts it: the
    /// state table of 8-byte records, the arc bit stream rounded up to
    /// whole bytes, and the K-means centroid table. The section adds its
    /// header, the final-weight table, the stream's word rounding and
    /// its tail padding.
    pub fn size_bytes(&self) -> u64 {
        self.layout
            .extents
            .size_bytes(self.layout.quant.table_bytes())
    }

    /// Whether each state, in state order, has an ε-input arc: the
    /// records' ε bits, which the structural walk proved against the
    /// arcs. One pass over the state table.
    pub fn eps_flags(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        let (states, _) = self.layout.extents.split(self.bytes.get());
        states
            .chunks_exact(crate::STATE_RECORD_BYTES)
            .map(|rec| rd_rec(rec, 0).2 & EPS_BIT != 0)
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
        let v = self.view();
        v.final_weight(v.rec(s).2)
    }

    /// Visits each arc of `s` with its bit offset and encoded width —
    /// the information the accelerator's Arc Issuer sees (it decodes the
    /// 2-bit tag to learn "whether it has to fetch the remaining 38 bits
    /// for the current arc, or the 20 bits for the next arc", §3.4).
    ///
    /// # Panics
    /// Panics if `s` is out of range. Every model was walked at bind or
    /// compression, so its arc stream is well formed.
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

    /// Serializes to an `UNFA` section (see [`crate::io`]): a copy of
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
            if let Some(w) = v.final_weight(v.rec(s).2) {
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

    /// The checks binding a bundle section runs (header parse, then the
    /// structural walk), over bare section bytes.
    fn load(bytes: &[u8]) -> Result<CompressedAm, ModelIoError> {
        let mut layout = AmLayout::parse(bytes)?;
        layout.max_pdf = layout.walk(bytes)?;
        Ok(CompressedAm {
            bytes: SectionBytes::Owned(bytes.into()),
            layout,
        })
    }

    #[test]
    fn the_walk_records_the_largest_pdf_id() {
        let fst = am_fst();
        let want = fst
            .states()
            .flat_map(|s| fst.arcs(s).iter().map(|a| a.ilabel))
            .max()
            .unwrap();
        let comp = CompressedAm::compress(&fst, 64, 0);
        assert_eq!(comp.max_pdf(), want);
        assert_eq!(load(&comp.to_bytes()).unwrap().max_pdf(), want);
        assert_eq!(AmLayout::parse(&comp.to_bytes()).unwrap().max_pdf, 0);
    }

    #[test]
    fn the_walk_rejects_weight_indices_past_a_small_codebook() {
        // Four centroids: index 4..=63 names none. Raise state 0's
        // first arc's weight index to 63.
        let comp = CompressedAm::compress(&am_fst(), 4, 0);
        let mut bytes = comp.to_bytes();
        let stream = bytes.len() - comp.layout.arc_stream_bytes();
        let off = comp.state_bit_offset(0) + u64::from(TAG_BITS + PDF_BITS);
        for b in off..off + u64::from(WEIGHT_BITS) {
            bytes[stream + (b / 8) as usize] |= 1 << (b % 8);
        }
        assert!(AmLayout::parse(&bytes).is_ok());
        assert_eq!(
            load(&bytes).unwrap_err(),
            ModelIoError::Corrupt("weight index past the codebook")
        );
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
        let back = load(&bytes).expect("valid section");
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
        let comp = CompressedAm::compress(&am_fst(), 64, 0);
        let good = comp.to_bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(load(&bad).unwrap_err(), ModelIoError::BadMagic);
        assert_eq!(AmLayout::parse(&bad).unwrap_err(), ModelIoError::BadMagic);
        // Truncated.
        assert_eq!(
            load(&good[..good.len() / 2]).unwrap_err(),
            ModelIoError::Truncated
        );
        assert_eq!(
            AmLayout::parse(&good[..good.len() / 2]).unwrap_err(),
            ModelIoError::Truncated
        );
        // Flip a state record's bit offset: contiguity validation must
        // surface a structural error, never a panic. The state table
        // sits right before the stream's bit length (u64) and word
        // count (u32); records are 8 bytes each, offset first.
        let mut flipped = good.clone();
        let table =
            good.len() - comp.layout.arc_stream_bytes() - 12 - comp.layout.state_table_bytes();
        flipped[table + crate::STATE_RECORD_BYTES] ^= 0xFF;
        assert_eq!(
            load(&flipped).unwrap_err(),
            ModelIoError::Corrupt("arc blocks not contiguous")
        );
    }

    #[test]
    fn full_load_also_checks_what_the_header_parse_defers() {
        // Re-tag state 0's first arc as "-1": the state table is
        // untouched, so the header parse accepts the bytes, but the
        // structural walk rejects them.
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
            load(&bytes).unwrap_err(),
            ModelIoError::Corrupt("-1 arc from state 0")
        );
    }

    #[test]
    fn final_weights_and_eps_bits_come_from_the_records() {
        let fst = am_fst();
        let comp = CompressedAm::compress(&fst, 64, 0);
        let layout = AmLayout::parse(&comp.to_bytes()).unwrap();
        assert_eq!(layout.num_final_weights(), 1);
        assert_eq!(
            layout.state_table_bytes(),
            comp.num_states() * crate::STATE_RECORD_BYTES
        );
        assert_eq!(comp.eps_flags().len(), fst.num_states());
        for (s, flag) in fst.states().zip(comp.eps_flags()) {
            assert_eq!(comp.final_weight(s), fst.final_weight(s), "state {s}");
            let eps = fst.arcs(s).iter().any(|a| a.ilabel == EPSILON);
            assert_eq!(flag, eps, "state {s}");
        }
    }

    #[test]
    #[should_panic(expected = "compress: state 0 has 65536 arcs, past the 16-bit count")]
    fn compress_refuses_a_count_past_16_bits() {
        let mut b = WfstBuilder::with_states(1);
        b.set_start(0);
        for _ in 0..=u16::MAX as usize {
            b.add_arc(0, Arc::new(1, EPSILON, 0.5, 0));
        }
        CompressedAm::compress(&b.build(), 4, 0);
    }

    #[test]
    #[should_panic(
        expected = "compress: more than 32767 distinct final weights, past the 15-bit slot"
    )]
    fn compress_refuses_more_final_weights_than_the_slot_indexes() {
        let n = usize::from(NOT_FINAL) + 1;
        let mut b = WfstBuilder::with_states(n);
        b.set_start(0);
        for s in 0..n as StateId {
            b.set_final(s, s as f32);
        }
        CompressedAm::compress(&b.build(), 4, 0);
    }

    #[test]
    fn as_many_final_weights_as_the_slot_indexes_still_compress() {
        let n = usize::from(NOT_FINAL);
        let mut b = WfstBuilder::with_states(n);
        b.set_start(0);
        for s in 0..n as StateId {
            b.set_final(s, s as f32);
        }
        let comp = CompressedAm::compress(&b.build(), 4, 0);
        let last = n as StateId - 1;
        assert_eq!(comp.final_weight(last), Some(last as f32));
    }

    #[test]
    fn ctc_graph_also_roundtrips() {
        let fst = build_am(&Lexicon::generate(80, 25, 9), HmmTopology::Ctc).fst;
        let comp = CompressedAm::compress(&fst, 64, 1);
        let rt = comp.to_wfst();
        assert_eq!(rt.num_arcs(), fst.num_arcs());
    }
}
