//! Word lattices: the compact backpointer chain the 1-best search
//! writes, the raw expansion tape recorded alongside it, and the
//! [`WordLattice`] post-pass that turns the tape into an exact, pruned
//! word lattice with posteriors and deterministic N-best paths.
//!
//! Tokens do not store word histories; they store an index into the
//! append-only [`Lattice`]. Each entry records a recognized word and the
//! entry that preceded it, so a hypothesis's words are recovered by
//! walking backpointers from its lattice index — the same compact
//! token-to-lattice split the paper adopts from \[22\] to cut Token Cache
//! traffic ("the Token Issuer \[writes\] the word lattice in a compact
//! representation").
//!
//! The backpointer chain only remembers the Viterbi predecessor of each
//! token. When a lattice is requested, the decoder additionally turns on
//! the *expansion tape*: every relaxation the search attempts — emitting
//! or epsilon, improving or not — is appended as a raw 16-byte
//! `(source token, destination token, word, destination cost)` record.
//! A record names its tokens by their entry index in their population's
//! token store; the tape keeps each completed population's key lane
//! beside the records, so an index turns back into a `(population,
//! key)` node when the lattice is built. Records and keys live in
//! fixed-size blocks that are reused across utterances. Because the
//! tape captures *all* surviving incoming arcs per (frame, state), the
//! post-pass can reconstruct the exact set of hypotheses the beam
//! search considered, not just the single best (the GPU exact-lattice
//! decoder of Povey et al. materializes lattices from token passing the
//! same way). The tape is contents-neutral for search: recording never
//! changes decode output, stats, or the trace event stream.
//!
//! The tape holds only what can still reach the frontier. Once it spans
//! more than 16 record blocks (1 MiB), or twice what the last prune
//! left, the next population boundary sweeps it backward from every
//! token of the population just completed and compacts the survivors in
//! place (Kaldi's `PruneActiveTokens` cadence). A record that reaches a
//! final token reaches the frontier at every earlier boundary, so a
//! prune drops only records the final sweep would drop, and the lattice
//! is bit-identical to an unpruned build.
//!
//! The post-pass (`WordLattice::build`) runs the same backward sweep
//! from the final tokens, marking live tokens in one bit per key-lane
//! entry and keeping only the records that can reach a final token (a
//! fraction of a percent of a large-vocabulary tape). It then
//! works on that slice in two semirings through the [`Semiring`] trait:
//! tropical (min, +) for the exact forward/backward Viterbi scores that
//! drive lattice-beam pruning, and log (-log-sum-exp, +) for the
//! forward/backward occupation scores that yield arc posteriors —
//! per-word confidence.

use std::collections::{BTreeMap, BinaryHeap};

use unfold_lm::WordId;
use unfold_wfst::{LogWeight, Semiring, TropicalWeight};

use crate::search::{TokenLanes, TokenMap};
use crate::sources::AmSource;

/// Bytes one lattice entry occupies in the compact representation
/// (\[22\]-style: packed backpointer + word id).
pub const COMPACT_ENTRY_BYTES: u32 = 8;
/// Bytes one lattice entry occupies in the plain representation used by
/// the fully-composed baseline's Token Issuer.
pub const PLAIN_ENTRY_BYTES: u32 = 16;

/// Sentinel lattice index meaning "no predecessor".
pub const LATTICE_ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    prev: u32,
    word: WordId,
    frame: u32,
}

/// One raw record on the expansion tape: the search relaxed an arc from
/// token entry `src` into token entry `dst`, carrying `word` (0 for
/// none), arriving with path cost `dst_cost`. A token is named by its
/// entry index within its population, the position its key holds in
/// that population's key lane. Which populations the two tokens belong
/// to is not stored: it follows from the [`PopSegment`] the record sits
/// in.
#[derive(Debug, Clone, Copy)]
struct TapeArc {
    src: u32,
    dst: u32,
    word: WordId,
    dst_cost: f32,
}

const _: () = assert!(std::mem::size_of::<TapeArc>() == 16);

/// Where one population's records and keys sit. Both kernels tape every
/// emitting relaxation of a frame before its closure starts, so a
/// population `p` is two runs: `start..eps` are emitting records
/// (source in `p - 1`, destination in `p`), and `eps..` up to the next
/// segment's `start` are closure records (both ends in `p`). Its key
/// lane starts at `keys` in the snapshot store and ends where the next
/// segment's starts; the last population's lane is the final token
/// store's own.
#[derive(Debug, Clone, Copy, Default)]
struct PopSegment {
    start: usize,
    eps: usize,
    keys: usize,
}

/// A kept tape record with its endpoints made explicit as
/// `(population, key)` nodes.
#[derive(Debug, Clone, Copy)]
struct SliceArc {
    src: (u32, u64),
    dst: (u32, u64),
    word: WordId,
    dst_cost: f32,
}

/// What the mark pass leaves: one liveness bit per key-lane entry
/// (entry `e` of population `p` is bit `segments[p].keys + e`), one bit
/// per tape record that is kept (its destination is live), and, after
/// [`Marks::rank_words`], the live entries before each word of
/// liveness bits.
#[derive(Debug, Clone, Default)]
struct Marks {
    live: Vec<u64>,
    kept: Vec<u64>,
    ranks: Vec<u32>,
}

impl Marks {
    /// Fills `ranks` for [`Marks::rank`].
    fn rank_words(&mut self) {
        self.ranks.clear();
        let mut before = 0;
        for w in &self.live {
            self.ranks.push(before);
            before += w.count_ones();
        }
        self.ranks.push(before);
    }

    /// Live entries before entry `i`: where a prune moves entry `i` if
    /// it is live.
    fn rank(&self, i: usize) -> usize {
        let (w, b) = (i / 64, i % 64);
        let below = self.live.get(w).map_or(0, |&bits| bits & ((1u64 << b) - 1));
        self.ranks[w] as usize + below.count_ones() as usize
    }
}

/// Whether bit `i` of `bits` is set.
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Sets bit `i` of `bits`, returning whether it was clear.
fn set_bit(bits: &mut [u64], i: usize) -> bool {
    let (w, b) = (i / 64, 1u64 << (i % 64));
    let was = bits[w] & b;
    bits[w] |= b;
    was == 0
}

/// The indices in `lo..hi` whose bit is set in `bits`, in order.
fn ones(bits: &[u64], lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
    (lo / 64..hi.div_ceil(64)).flat_map(move |w| {
        let (from, to) = (lo.saturating_sub(w * 64), (hi - w * 64).min(64));
        let mut word = bits[w] & (!0u64 << from) & (!0u64 >> (64 - to));
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + b
            })
        })
    })
}

/// Bytes of one [`Blocks`] block.
const BLOCK_BYTES: usize = 64 << 10;

/// Record blocks the tape may span before its first prune: 16 blocks of
/// [`BLOCK_BYTES`], 1 MiB of records. On `stream_eesen_lat` a lower
/// floor costs more CPU for no lower peak, and a floor of 32 blocks
/// keeps ~1.2 MiB more (DESIGN.md §14).
const PRUNE_FLOOR_BLOCKS: usize = 16;

/// A prune runs once the tape spans more than this many times the
/// record blocks the last prune left, so the sweeps over a decode add
/// up to about one sweep of its largest tape.
const PRUNE_RATIO: usize = 2;

/// Append-only storage in fixed-size blocks of [`BLOCK_BYTES`]: growth
/// starts a new block and never moves what is already stored, and
/// `clear` and `truncate` keep the blocks they empty for later growth.
#[derive(Debug, Clone)]
struct Blocks<T> {
    /// Full blocks, in order.
    full: Vec<Vec<T>>,
    /// The block being filled.
    tail: Vec<T>,
    /// Empty blocks, used before allocating new ones.
    spare: Vec<Vec<T>>,
    /// A test's block length in place of the one [`BLOCK_BYTES`] sets,
    /// so small tapes span many blocks.
    #[cfg(test)]
    test_len: Option<usize>,
    /// Blocks filed full since the last `clear` (test hook).
    #[cfg(test)]
    filed: usize,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            full: Vec::new(),
            tail: Vec::new(),
            spare: Vec::new(),
            #[cfg(test)]
            test_len: None,
            #[cfg(test)]
            filed: 0,
        }
    }
}

impl<T: Copy> Blocks<T> {
    /// Elements a block holds.
    #[inline(always)]
    fn block_len(&self) -> usize {
        #[cfg(test)]
        if let Some(len) = self.test_len {
            return len;
        }
        BLOCK_BYTES / std::mem::size_of::<T>()
    }

    fn len(&self) -> usize {
        self.full.len() * self.block_len() + self.tail.len()
    }

    /// Blocks in use, the tail included.
    fn blocks(&self) -> usize {
        self.full.len() + 1
    }

    /// Gives the tail block its full size up front, so that not even
    /// the first block grows by reallocating.
    fn reserve_block(&mut self) {
        self.tail.reserve_exact(self.block_len() - self.tail.len());
    }

    fn clear(&mut self) {
        self.truncate(0);
        #[cfg(test)]
        {
            self.filed = 0;
        }
    }

    /// Keeps the first `n` elements and files every block past them in
    /// `spare`.
    fn truncate(&mut self, n: usize) {
        let len = self.block_len();
        let keep = n.div_ceil(len).max(1);
        while self.full.len() >= keep {
            let last = self.full.pop().expect("a full block is left");
            let mut b = std::mem::replace(&mut self.tail, last);
            b.clear();
            self.spare.push(b);
        }
        self.tail.truncate(n - self.full.len() * len);
    }

    #[inline]
    fn push(&mut self, v: T) {
        if self.tail.len() == self.block_len() {
            self.next_block();
        }
        self.tail.push(v);
    }

    fn extend_from_slice(&mut self, mut vs: &[T]) {
        while !vs.is_empty() {
            if self.tail.len() == self.block_len() {
                self.next_block();
            }
            let n = (self.block_len() - self.tail.len()).min(vs.len());
            self.tail.extend_from_slice(&vs[..n]);
            vs = &vs[n..];
        }
    }

    /// Files the full tail block and starts a spare or a new one.
    #[cold]
    #[inline(never)]
    fn next_block(&mut self) {
        let len = self.block_len();
        let next = self.spare.pop().unwrap_or_else(|| {
            // Room in `spare` for every block, so that giving blocks
            // back never allocates.
            self.spare.reserve(self.full.len() + 2);
            Vec::with_capacity(len)
        });
        self.full.push(std::mem::replace(&mut self.tail, next));
        #[cfg(test)]
        {
            self.filed += 1;
        }
    }

    /// Block `i`: a full one, or the tail.
    fn block(&self, i: usize) -> &[T] {
        self.full.get(i).unwrap_or(&self.tail)
    }

    fn get(&self, i: usize) -> T {
        let len = self.block_len();
        self.block(i / len)[i % len]
    }

    /// Overwrites element `i`, which must be stored already.
    fn set(&mut self, i: usize, v: T) {
        let len = self.block_len();
        let block = self.full.get_mut(i / len).unwrap_or(&mut self.tail);
        block[i % len] = v;
    }

    /// Elements `lo..hi` as one slice per block they span, in order.
    fn slices(&self, lo: usize, hi: usize) -> impl DoubleEndedIterator<Item = &[T]> {
        let len = self.block_len();
        let span = if lo < hi {
            lo / len..(hi - 1) / len + 1
        } else {
            0..0
        };
        span.map(move |i| &self.block(i)[lo.saturating_sub(i * len)..(hi - i * len).min(len)])
    }
}

/// Append-only word lattice backpointer store, plus (when recording is
/// enabled) the raw expansion tape a [`WordLattice`] is built from.
#[derive(Debug, Clone, Default)]
pub struct Lattice {
    entries: Vec<Entry>,
    /// Whether the expansion tape is being recorded.
    recording: bool,
    /// Current token population: 0 for the seed closure, `t + 1` once
    /// frame `t` has been expanded.
    cur_pop: u32,
    /// Raw expansion records, in the order the search attempted them.
    tape: Blocks<TapeArc>,
    /// The key lanes of every completed population, back to back.
    keys: Blocks<u64>,
    /// One segment per population while recording (`cur_pop + 1` of
    /// them), indexed by population.
    segments: Vec<PopSegment>,
    /// Record blocks the last prune left (0 before the first).
    kept_blocks: usize,
    /// The prune's marks, kept so a warm prune allocates nothing.
    marks: Marks,
    /// Prunes since the last `clear` (test hook).
    #[cfg(test)]
    prunes: usize,
}

impl Lattice {
    /// Creates an empty lattice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the lattice is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry and tape record but keeps the allocations
    /// (scratch reuse between utterances), tape blocks included.
    /// Recording is switched off; each lattice-producing entry point
    /// re-enables it explicitly.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.tape.clear();
        self.keys.clear();
        self.segments.clear();
        self.recording = false;
        self.cur_pop = 0;
        self.kept_blocks = 0;
        #[cfg(test)]
        {
            self.prunes = 0;
        }
    }

    /// Enables or disables the expansion tape, before the seed token is
    /// recorded. Contents-neutral for the search itself.
    pub(crate) fn set_recording(&mut self, on: bool) {
        debug_assert!(
            self.tape.len() == 0 && self.cur_pop == 0,
            "tape switched mid-decode"
        );
        self.recording = on;
        self.segments.clear();
        if on {
            self.segments.push(PopSegment::default());
            self.tape.reserve_block();
            self.keys.reserve_block();
        }
    }

    /// Whether the expansion tape is being recorded.
    pub(crate) fn is_recording(&self) -> bool {
        self.recording
    }

    /// Advances to the next token population; called once at the start
    /// of every frame expansion with the key lane of the population
    /// just completed, which the tape keeps while recording. When the
    /// tape has outgrown the last prune, it is pruned here to what can
    /// reach that population.
    pub(crate) fn advance_pop(&mut self, keys: &[u64]) {
        let due = self.tape.blocks() > PRUNE_FLOOR_BLOCKS.max(PRUNE_RATIO * self.kept_blocks);
        self.advance(keys, due);
    }

    /// [`Lattice::advance_pop`] with the prune decided by the caller.
    fn advance(&mut self, keys: &[u64], prune: bool) {
        self.cur_pop += 1;
        if self.recording {
            self.keys.extend_from_slice(keys);
            if prune {
                self.prune();
            }
            let at = self.tape.len();
            self.segments.push(PopSegment {
                start: at,
                eps: at,
                keys: self.keys.len(),
            });
        }
    }

    /// Marks the start of the current population's ε-closure: every
    /// record taped from here on is a closure record.
    pub(crate) fn start_closure(&mut self) {
        if self.recording {
            let at = self.tape.len();
            self.segments[self.cur_pop as usize].eps = at;
        }
    }

    /// Records a relaxation from entry `src` into entry `dst`. Before
    /// [`Lattice::start_closure`], `src` is in the previous population
    /// and `dst` in the current one; after it, both are in the current
    /// one.
    #[inline]
    pub(crate) fn record(&mut self, src: u32, dst: u32, word: WordId, dst_cost: f32) {
        if self.recording {
            self.tape.push(TapeArc {
                src,
                dst,
                word,
                dst_cost,
            });
        }
    }

    /// Stores the tape and the key lanes in blocks of `len` elements
    /// instead of [`BLOCK_BYTES`], so a short decode spans many blocks.
    #[cfg(test)]
    pub(crate) fn set_block_len(&mut self, len: usize) {
        assert!(self.tape.len() == 0 && self.keys.len() == 0, "tape in use");
        self.tape.test_len = Some(len);
        self.keys.test_len = Some(len);
    }

    /// Records the tape holds for populations before `p` (test hook).
    #[cfg(test)]
    pub(crate) fn records_before(&self, p: usize) -> usize {
        self.segments[p].start
    }

    /// Record blocks filed full and prunes run since the last `clear`
    /// (test hook).
    #[cfg(test)]
    pub(crate) fn tape_churn(&self) -> (usize, usize) {
        (self.tape.filed, self.prunes)
    }

    /// Record blocks the tape holds, in use or spare: its high-water
    /// mark (test hook).
    #[cfg(test)]
    pub(crate) fn tape_blocks_held(&self) -> usize {
        self.tape.blocks() + self.tape.spare.len()
    }

    /// The key of entry `e` of population `p`; `last_keys` is the last
    /// population's key lane.
    fn key(&self, last_keys: &[u64], p: usize, e: u32) -> u64 {
        if p + 1 == self.segments.len() {
            last_keys[e as usize]
        } else {
            self.keys.get(self.segments[p].keys + e as usize)
        }
    }

    /// Where population `p`'s records end on the tape.
    fn records_end(&self, p: usize) -> usize {
        self.segments
            .get(p + 1)
            .map_or(self.tape.len(), |s| s.start)
    }

    /// The mark pass shared by the prune and the lattice build: marks
    /// live in `marks` every token that some chain of taped relaxations
    /// connects to an entry in `seeds` (entries of the last population,
    /// whose lane holds `last_len` keys), and the seed token (entry 0 of
    /// population 0). Keeping every record whose destination is live
    /// then keeps each record's source too, so the kept set is closed
    /// under predecessors and each kept token keeps *all* of its
    /// incoming records.
    ///
    /// Populations are walked last to first. Closure records are
    /// rescanned until a pass adds nothing: a relaxation that did not
    /// improve its destination is taped after the destination's own
    /// expansion, so a single reverse scan can meet it before its
    /// destination is known to be live.
    fn mark(&self, marks: &mut Marks, last_len: usize, seeds: impl Iterator<Item = u32>) {
        let last = self.segments.len() - 1;
        let base = self.segments[last].keys;
        let Marks { live, kept, .. } = marks;
        live.clear();
        live.resize((base + last_len).div_ceil(64), 0);
        kept.clear();
        kept.resize(self.tape.len().div_ceil(64), 0);
        for e in seeds {
            set_bit(live, base + e as usize);
        }
        set_bit(live, 0);
        for p in (0..=last).rev() {
            let seg = self.segments[p];
            let end = self.records_end(p);
            loop {
                let (mut grew, mut i) = (false, end);
                for block in self.tape.slices(seg.eps, end).rev() {
                    for a in block.iter().rev() {
                        i -= 1;
                        if bit(live, seg.keys + a.dst as usize) {
                            set_bit(kept, i);
                            grew |= set_bit(live, seg.keys + a.src as usize);
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            if p > 0 {
                let (prev, mut i) = (self.segments[p - 1].keys, seg.start);
                for block in self.tape.slices(seg.start, seg.eps) {
                    for a in block {
                        if bit(live, seg.keys + a.dst as usize) {
                            set_bit(kept, i);
                            set_bit(live, prev + a.src as usize);
                        }
                        i += 1;
                    }
                }
            }
        }
    }

    /// The co-reachable slice of the tape (see [`Lattice::mark`]) for
    /// the final tokens `finals` of the last population, whose key lane
    /// is `last_keys`: its tokens as `(population, key)` nodes, and
    /// every record whose destination is one of them.
    fn coreachable(
        &self,
        last_keys: &[u64],
        finals: impl Iterator<Item = u32>,
    ) -> (Vec<(u32, u64)>, Vec<SliceArc>) {
        let mut marks = Marks::default();
        self.mark(&mut marks, last_keys.len(), finals);
        let mut nodes: Vec<(u32, u64)> = Vec::new();
        let mut arcs: Vec<SliceArc> = Vec::new();
        let last = self.segments.len() - 1;
        for p in 0..=last {
            let seg = self.segments[p];
            let keys_end = self
                .segments
                .get(p + 1)
                .map_or(seg.keys + last_keys.len(), |s| s.keys);
            nodes.extend(
                ones(&marks.live, seg.keys, keys_end)
                    .map(|i| (p as u32, self.key(last_keys, p, (i - seg.keys) as u32))),
            );
            let end = self.records_end(p);
            for (lo, hi, src_pop) in [(seg.start, seg.eps, p.saturating_sub(1)), (seg.eps, end, p)]
            {
                arcs.extend(ones(&marks.kept, lo, hi).map(|i| {
                    let a = self.tape.get(i);
                    SliceArc {
                        src: (src_pop as u32, self.key(last_keys, src_pop, a.src)),
                        dst: (p as u32, self.key(last_keys, p, a.dst)),
                        word: a.word,
                        dst_cost: a.dst_cost,
                    }
                }));
            }
        }
        (nodes, arcs)
    }

    /// Prunes the tape to what can reach the population just completed
    /// (the frontier: the last segment's, whose keys are the last on
    /// the key lane), and compacts it in place. Surviving records and
    /// keys keep their relative order, an entry's new index is the
    /// count of live entries before it in its population, and blocks
    /// left empty go back to `spare`. Every frontier entry survives, so
    /// the frontier keeps its numbering and the next population's
    /// records can still name it; the seed token survives even when the
    /// frontier is empty. Only what survives is read again: the mark
    /// pass left a bit per kept record.
    fn prune(&mut self) {
        let last = self.segments.len() - 1;
        let width = self.keys.len() - self.segments[last].keys;
        let mut marks = std::mem::take(&mut self.marks);
        self.mark(&mut marks, width, 0..width as u32);
        marks.rank_words();
        // Keys: a live entry moves to its rank, which never passes it.
        let mut key_at = 0;
        for i in ones(&marks.live, 0, self.keys.len()) {
            let k = self.keys.get(i);
            self.keys.set(key_at, k);
            key_at += 1;
        }
        // Records: population by population, first to last; a segment
        // is rewritten once the next one has been read.
        let (mut rec_at, mut prev) = (0, 0);
        for p in 0..=last {
            let seg = self.segments[p];
            let end = self.records_end(p);
            let new_keys = marks.rank(seg.keys);
            let new_prev = marks.rank(prev);
            let new_start = rec_at;
            let mut new_eps = rec_at;
            // Emitting records (sources in the population before), then
            // closure records, whose run starts at `new_eps`.
            for (lo, hi, src_at, new_src_at) in [
                (seg.start, seg.eps, prev, new_prev),
                (seg.eps, end, seg.keys, new_keys),
            ] {
                new_eps = rec_at;
                for i in ones(&marks.kept, lo, hi) {
                    let a = self.tape.get(i);
                    debug_assert!(
                        bit(&marks.live, src_at + a.src as usize),
                        "a kept record's source died"
                    );
                    let moved = TapeArc {
                        src: (marks.rank(src_at + a.src as usize) - new_src_at) as u32,
                        dst: (marks.rank(seg.keys + a.dst as usize) - new_keys) as u32,
                        ..a
                    };
                    self.tape.set(rec_at, moved);
                    rec_at += 1;
                }
            }
            self.segments[p] = PopSegment {
                start: new_start,
                eps: new_eps,
                keys: new_keys,
            };
            prev = seg.keys;
        }
        self.tape.truncate(rec_at);
        self.keys.truncate(key_at);
        self.kept_blocks = self.tape.blocks();
        self.marks = marks;
        #[cfg(test)]
        {
            self.prunes += 1;
        }
    }

    /// Appends a word recognized at `frame`, preceded by `prev`
    /// (or [`LATTICE_ROOT`]). Returns the new entry's index.
    ///
    /// # Panics
    /// Panics if `prev` is neither [`LATTICE_ROOT`] nor a valid index,
    /// or if the lattice would exceed `u32::MAX - 1` entries.
    pub fn push(&mut self, prev: u32, word: WordId, frame: u32) -> u32 {
        assert!(
            prev == LATTICE_ROOT || (prev as usize) < self.entries.len(),
            "push: dangling backpointer {prev}"
        );
        let idx = self.entries.len();
        assert!(idx < (u32::MAX - 1) as usize, "push: lattice overflow");
        self.entries.push(Entry { prev, word, frame });
        idx as u32
    }

    /// Recovers the word sequence ending at `index` (oldest first).
    /// [`LATTICE_ROOT`] yields the empty sequence.
    ///
    /// # Panics
    /// Panics if `index` is invalid.
    pub fn backtrace(&self, index: u32) -> Vec<WordId> {
        self.backtrace_spanned(index)
            .into_iter()
            .map(|(w, _)| w)
            .collect()
    }

    /// The words and the frames of [`Lattice::backtrace_spanned`] as two
    /// lanes, each allocated once at its length.
    pub(crate) fn backtrace_lanes(&self, index: u32) -> (Vec<WordId>, Vec<u32>) {
        let chain = || {
            let step =
                |&i: &u32| Some(self.entries[i as usize].prev).filter(|&p| p != LATTICE_ROOT);
            std::iter::successors(Some(index).filter(|&i| i != LATTICE_ROOT), step)
                .map(|i| self.entries[i as usize])
        };
        let n = chain().count();
        let (mut words, mut frames) = (vec![0; n], vec![0; n]);
        for (i, e) in (0..n).rev().zip(chain()) {
            words[i] = e.word;
            frames[i] = e.frame;
        }
        (words, frames)
    }

    /// Like [`Lattice::backtrace`], but pairs every word with the frame
    /// it was recognized at.
    ///
    /// # Panics
    /// Panics if `index` is invalid.
    pub fn backtrace_spanned(&self, index: u32) -> Vec<(WordId, u32)> {
        let mut words = Vec::new();
        let mut cur = index;
        while cur != LATTICE_ROOT {
            let e = &self.entries[cur as usize];
            words.push((e.word, e.frame));
            cur = e.prev;
        }
        words.reverse();
        words
    }
}

/// A node of a [`WordLattice`]: one surviving search token, identified
/// by its `(frame, packed state key)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeNode {
    /// Token population: 0 before any frame, `t + 1` after frame `t`.
    pub frame: u32,
    /// Packed `(am_state << 32) | lm_state` search key.
    pub key: u64,
    /// Exact tropical forward cost from the start node — bit-identical
    /// to the search token's accumulated path cost.
    pub forward: f32,
    /// Tropical backward cost to the cheapest reachable final.
    pub backward: f32,
    /// Log-semiring forward score (α) over the pruned lattice.
    pub log_forward: f32,
    /// Log-semiring backward score (β, including final weights) over
    /// the pruned lattice.
    pub log_backward: f32,
}

/// An arc of a [`WordLattice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeArc {
    /// Source node index.
    pub from: u32,
    /// Destination node index.
    pub to: u32,
    /// Word carried by the arc (0 = none).
    pub word: WordId,
    /// Tropical cost contribution of this arc.
    pub weight: f32,
    /// Posterior probability of the arc under the log semiring, in
    /// `[0, 1]`.
    pub posterior: f32,
}

/// One word of a best-path hypothesis with its recognition frame and
/// lattice-posterior confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordHyp {
    /// The word.
    pub word: WordId,
    /// Frame the word was recognized at.
    pub frame: u32,
    /// Posterior confidence in `[0, 1]`.
    pub confidence: f32,
}

/// An exact, lattice-beam-pruned word lattice over surviving search
/// tokens.
///
/// Nodes are ordered by `(frame, key)` and arcs by
/// `(from, to, word)`, so two lattices built from the same search —
/// regardless of kernel, OLT size, scratch reuse, or streaming — are
/// bit-identical structure-for-structure; the verify matrix pins this.
/// Every node lies on at least one complete path whose total cost is
/// within `lattice_beam` of the best (non-coreachable nodes are
/// pruned), and the exact Viterbi path is always present.
#[derive(Debug, Clone)]
pub struct WordLattice {
    nodes: Vec<LatticeNode>,
    arcs: Vec<LatticeArc>,
    /// CSR offsets into `arcs` per node (length `nodes.len() + 1`).
    arc_start: Vec<u32>,
    /// Final nodes and their final weights.
    finals: Vec<(u32, f32)>,
    start: u32,
    best_cost: f32,
    num_frames: u32,
}

impl Default for WordLattice {
    fn default() -> Self {
        WordLattice::empty()
    }
}

/// Safety valve for the best-first path enumerations: total heap pops.
const EXPLORE_BUDGET: usize = 400_000;

impl WordLattice {
    /// The empty lattice (an incomplete decode).
    pub(crate) fn empty() -> Self {
        WordLattice {
            nodes: Vec::new(),
            arcs: Vec::new(),
            arc_start: vec![0],
            finals: Vec::new(),
            start: 0,
            best_cost: f32::INFINITY,
            num_frames: 0,
        }
    }

    /// Builds the pruned word lattice from a recorded expansion tape and
    /// the search's final token population.
    ///
    /// Only the co-reachable slice of the tape ([`Lattice::coreachable`])
    /// is ever numbered, sorted or scored. That loses nothing: a token
    /// outside the slice reaches no final, so its backward cost is
    /// infinite and the lattice beam drops it whatever its forward
    /// cost; and because the slice is closed under predecessors, every
    /// kept node still sees all of its incoming records (same forward
    /// cost) and smallest-index Kahn visits the kept nodes in the same
    /// relative order as it would inside the full tape graph (same
    /// log-semiring accumulation order, so the same posterior bits).
    pub(crate) fn build<A: AmSource + ?Sized>(
        am: &A,
        tape: &Lattice,
        final_population: &TokenLanes,
        lattice_beam: f32,
    ) -> WordLattice {
        debug_assert!(tape.is_recording(), "building a lattice without a tape");
        let t_final = tape.cur_pop;
        let last_keys = final_population.keys_slice();

        // Final (entry, final weight) pairs from the last population.
        let mut finals: Vec<(u32, f32)> = Vec::new();
        for (e, &key) in last_keys.iter().enumerate() {
            let am_state = (key >> 32) as u32;
            if let Some(fw) = am.final_weight(am_state) {
                finals.push((e as u32, fw));
            }
        }

        // Node universe, canonically ordered by (population, key).
        let (mut node_meta, slice) = tape.coreachable(last_keys, finals.iter().map(|&(e, _)| e));
        node_meta.sort_unstable();
        let n = node_meta.len();
        let id = |node: (u32, u64)| -> u32 {
            node_meta
                .binary_search(&node)
                .expect("every slice endpoint is a slice node") as u32
        };
        let start = id((0, tape.key(last_keys, 0, 0)));
        let final_ids: Vec<(u32, f32)> = finals
            .iter()
            .map(|&(e, fw)| (id((t_final, last_keys[e as usize])), fw))
            .collect();

        // Canonical arc list: sorted, then deduplicated to the cheapest
        // record per (src, dst, word). Duplicates arise whenever the
        // closure re-expands an improved token; the minimum is exactly
        // the settled source cost plus the arc cost, so the surviving
        // record is independent of the order the search emitted them in.
        struct RawArc {
            from: u32,
            to: u32,
            word: WordId,
            dst_cost: f32,
        }
        let mut raw: Vec<RawArc> = slice
            .iter()
            .map(|a| RawArc {
                from: id(a.src),
                to: id(a.dst),
                word: a.word,
                dst_cost: a.dst_cost,
            })
            .collect();
        raw.sort_unstable_by(|a, b| {
            (a.from, a.to, a.word)
                .cmp(&(b.from, b.to, b.word))
                .then(a.dst_cost.total_cmp(&b.dst_cost))
        });
        raw.dedup_by(|next, kept| {
            (next.from, next.to, next.word) == (kept.from, kept.to, kept.word)
        });

        // Exact tropical forward: a node's cost is the cheapest recorded
        // relaxation into it — bit-identical to the search token's cost,
        // because the search computed the same minimum over the same
        // multiset.
        let mut fv = vec![f32::INFINITY; n];
        fv[start as usize] = 0.0;
        for a in &raw {
            let d = a.to as usize;
            fv[d] = TropicalWeight::from_cost(a.dst_cost)
                .plus(TropicalWeight::from_cost(fv[d]))
                .value();
        }

        // Provisional arcs with weight w = dst_cost - forward(src); the
        // decomposition makes every path's arc-weight sum equal its
        // search cost (up to float re-association). Self-loops are
        // dropped: the strict-improvement relax predicate means the
        // search itself never takes them.
        struct PArc {
            from: u32,
            to: u32,
            word: WordId,
            w: f32,
        }
        let mut parcs: Vec<PArc> = Vec::with_capacity(raw.len());
        for a in &raw {
            let w = a.dst_cost - fv[a.from as usize];
            if a.from != a.to && w.is_finite() {
                parcs.push(PArc {
                    from: a.from,
                    to: a.to,
                    word: a.word,
                    w,
                });
            }
        }

        // CSR over the provisional arcs (they are sorted by `from`
        // because node ids follow the (population, key) sort order).
        let mut pstart = vec![0u32; n + 1];
        for a in &parcs {
            pstart[a.from as usize + 1] += 1;
        }
        for i in 0..n {
            pstart[i + 1] += pstart[i];
        }

        // Topological order (Kahn, smallest node index first — emitting
        // arcs advance the frame, so this is near-sequential). Any
        // leftover nodes (an epsilon cycle, which well-formed models do
        // not produce) are appended in index order as a defensive
        // fallback; the enumeration budgets below keep everything
        // terminating regardless.
        let topo = {
            let mut indeg = vec![0u32; n];
            for a in &parcs {
                indeg[a.to as usize] += 1;
            }
            let mut heap = BinaryHeap::new();
            for (i, &d) in indeg.iter().enumerate() {
                if d == 0 {
                    heap.push(std::cmp::Reverse(i as u32));
                }
            }
            let mut order = Vec::with_capacity(n);
            let mut seen = vec![false; n];
            while let Some(std::cmp::Reverse(u)) = heap.pop() {
                order.push(u);
                seen[u as usize] = true;
                let (lo, hi) = (pstart[u as usize] as usize, pstart[u as usize + 1] as usize);
                for a in &parcs[lo..hi] {
                    indeg[a.to as usize] -= 1;
                    if indeg[a.to as usize] == 0 {
                        heap.push(std::cmp::Reverse(a.to));
                    }
                }
            }
            for i in 0..n as u32 {
                if !seen[i as usize] {
                    order.push(i);
                }
            }
            order
        };

        // Tropical backward over the provisional lattice (reverse
        // topological, exact on a DAG).
        let mut bv = vec![f32::INFINITY; n];
        for &(d, fw) in &final_ids {
            let d = d as usize;
            bv[d] = TropicalWeight::from_cost(fw)
                .plus(TropicalWeight::from_cost(bv[d]))
                .value();
        }
        for &u in topo.iter().rev() {
            let (lo, hi) = (pstart[u as usize] as usize, pstart[u as usize + 1] as usize);
            let mut acc = TropicalWeight::from_cost(bv[u as usize]);
            for a in &parcs[lo..hi] {
                acc = TropicalWeight::from_cost(a.w)
                    .times(TropicalWeight::from_cost(bv[a.to as usize]))
                    .plus(acc);
            }
            bv[u as usize] = acc.value();
        }

        // Best complete cost: minimum over finals of forward + final
        // weight (the same fold the search's finish step performs).
        let mut best = TropicalWeight::zero();
        for &(d, fw) in &final_ids {
            let d = d as usize;
            best = TropicalWeight::from_cost(fv[d])
                .times(TropicalWeight::from_cost(fw))
                .plus(best);
        }
        let best_cost = best.value();
        if !best_cost.is_finite() {
            return WordLattice::empty();
        }

        // Lattice-beam prune: keep an arc iff the best complete path
        // through it is within `lattice_beam` of the best. Every node a
        // kept arc touches then lies on such a path itself (the Viterbi
        // witness to/from the node survives arc-by-arc), so the pruned
        // lattice stays connected and coreachable by construction.
        let bound = best_cost + lattice_beam;
        let mut keep_node = vec![false; n];
        keep_node[start as usize] = true;
        let kept: Vec<usize> = (0..parcs.len())
            .filter(|&i| {
                let a = &parcs[i];
                fv[a.from as usize] + a.w + bv[a.to as usize] <= bound
            })
            .collect();
        for &i in &kept {
            keep_node[parcs[i].from as usize] = true;
            keep_node[parcs[i].to as usize] = true;
        }
        for &(d, fw) in &final_ids {
            if fv[d as usize] + fw <= bound {
                keep_node[d as usize] = true;
            }
        }

        // Renumber (sorted order preserved) and assemble.
        let mut remap = vec![u32::MAX; n];
        let mut nodes: Vec<LatticeNode> = Vec::new();
        for i in 0..n {
            if keep_node[i] {
                remap[i] = nodes.len() as u32;
                nodes.push(LatticeNode {
                    frame: node_meta[i].0,
                    key: node_meta[i].1,
                    forward: fv[i],
                    backward: bv[i],
                    log_forward: f32::INFINITY,
                    log_backward: f32::INFINITY,
                });
            }
        }
        let arcs: Vec<LatticeArc> = kept
            .iter()
            .map(|&i| {
                let a = &parcs[i];
                LatticeArc {
                    from: remap[a.from as usize],
                    to: remap[a.to as usize],
                    word: a.word,
                    weight: a.w,
                    posterior: 0.0,
                }
            })
            .collect();
        let mut finals: Vec<(u32, f32)> = final_ids
            .iter()
            .filter(|&&(d, fw)| fv[d as usize] + fw <= bound)
            .map(|&(d, fw)| (remap[d as usize], fw))
            .collect();
        finals.sort_by_key(|&(d, _)| d);
        let m = nodes.len();
        let mut arc_start = vec![0u32; m + 1];
        for a in &arcs {
            arc_start[a.from as usize + 1] += 1;
        }
        for i in 0..m {
            arc_start[i + 1] += arc_start[i];
        }
        let mut lat = WordLattice {
            nodes,
            arcs,
            arc_start,
            finals,
            start: remap[start as usize],
            best_cost,
            num_frames: t_final,
        };
        lat.compute_posteriors(&topo, &remap);
        lat
    }

    /// Log-semiring forward/backward over the pruned lattice, filling
    /// `log_forward`/`log_backward` per node and `posterior` per arc.
    /// `topo`/`remap` carry the pre-prune topological order; the induced
    /// order on kept nodes is still topological.
    fn compute_posteriors(&mut self, topo: &[u32], remap: &[u32]) {
        let m = self.nodes.len();
        if m == 0 {
            return;
        }
        let order: Vec<u32> = topo
            .iter()
            .map(|&u| remap[u as usize])
            .filter(|&d| d != u32::MAX)
            .collect();
        let mut alpha = vec![LogWeight::zero(); m];
        alpha[self.start as usize] = LogWeight::one();
        for &u in &order {
            let a_u = alpha[u as usize];
            if a_u == LogWeight::zero() {
                continue;
            }
            let (lo, hi) = self.out_range(u);
            for a in &self.arcs[lo..hi] {
                alpha[a.to as usize] =
                    alpha[a.to as usize].plus(a_u.times(LogWeight::from_cost(a.weight)));
            }
        }
        let mut beta = vec![LogWeight::zero(); m];
        for &(d, fw) in &self.finals {
            beta[d as usize] = beta[d as usize].plus(LogWeight::from_cost(fw));
        }
        for &u in order.iter().rev() {
            let (lo, hi) = self.out_range(u);
            let mut acc = beta[u as usize];
            for a in &self.arcs[lo..hi] {
                acc = acc.plus(LogWeight::from_cost(a.weight).times(beta[a.to as usize]));
            }
            beta[u as usize] = acc;
        }
        let total = alpha[self.start as usize].times(beta[self.start as usize]);
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.log_forward = alpha[i].value();
            n.log_backward = beta[i].value();
        }
        for a in &mut self.arcs {
            let through = alpha[a.from as usize]
                .times(LogWeight::from_cost(a.weight))
                .times(beta[a.to as usize]);
            let p = (-(through.value() - total.value())).exp();
            a.posterior = p.clamp(0.0, 1.0);
        }
    }

    #[inline]
    fn out_range(&self, u: u32) -> (usize, usize) {
        (
            self.arc_start[u as usize] as usize,
            self.arc_start[u as usize + 1] as usize,
        )
    }

    /// Nodes, ordered by `(frame, key)`.
    pub fn nodes(&self) -> &[LatticeNode] {
        &self.nodes
    }

    /// Arcs, ordered by `(from, to, word)`.
    pub fn arcs(&self) -> &[LatticeArc] {
        &self.arcs
    }

    /// Final nodes and their final weights, ordered by node index.
    pub fn finals(&self) -> &[(u32, f32)] {
        &self.finals
    }

    /// Start node index.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Cost of the best complete path (`f32::INFINITY` when empty).
    pub fn best_cost(&self) -> f32 {
        self.best_cost
    }

    /// Number of frames the utterance spanned.
    pub fn num_frames(&self) -> u32 {
        self.num_frames
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Whether the lattice holds no complete hypothesis.
    pub fn is_empty(&self) -> bool {
        self.finals.is_empty()
    }

    /// Frame an arc's label was recognized at (the frame its expansion
    /// consumed; epsilon-closure arcs share the frame of the expansion
    /// that produced their population).
    pub fn arc_frame(&self, arc: &LatticeArc) -> u32 {
        self.nodes[arc.to as usize].frame.saturating_sub(1)
    }

    /// Largest `forward + weight + backward` slack over the best
    /// complete cost across all arcs — by construction at most the
    /// lattice beam the lattice was pruned with; the verify matrix
    /// asserts exactly that.
    pub fn max_path_slack(&self) -> f32 {
        let mut worst = 0.0f32;
        for a in &self.arcs {
            let through =
                self.nodes[a.from as usize].forward + a.weight + self.nodes[a.to as usize].backward;
            let slack = through - self.best_cost;
            if slack > worst {
                worst = slack;
            }
        }
        worst
    }

    /// Sum of arc posteriors over the emitting arcs that consume
    /// `frame` — ~1.0 for every frame of a well-formed lattice, since
    /// each complete path crosses each frame boundary exactly once.
    pub fn emitting_posterior_sum(&self, frame: u32) -> f64 {
        let mut sum = 0.0f64;
        for a in &self.arcs {
            let (f, t) = (
                self.nodes[a.from as usize].frame,
                self.nodes[a.to as usize].frame,
            );
            if t == f + 1 && f == frame {
                sum += f64::from(a.posterior);
            }
        }
        sum
    }

    /// The `n` cheapest distinct word sequences through the lattice,
    /// best first, with their path costs. Deterministic: paths are
    /// enumerated best-first (A* with the exact tropical backward score
    /// as heuristic) with ties broken by insertion order over the
    /// canonically sorted arc list.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    pub fn nbest(&self, n: usize) -> Vec<(Vec<WordId>, f32)> {
        assert!(n > 0, "nbest: n must be > 0");
        let cap = 8 * n + 32;
        let (paths, _) = self.explore(n, f64::INFINITY, EXPLORE_BUDGET, cap);
        paths
            .into_iter()
            .map(|(words, cost)| (words, cost as f32))
            .collect()
    }

    /// Every distinct word sequence whose best path cost is at most
    /// `bound`, with that cost, or `None` if the enumeration exceeded
    /// `budget` heap pops (an unpruned lattice can hold exponentially
    /// many paths). Used by the verify matrix's exhaustive comparisons.
    pub fn paths_within(&self, bound: f32, budget: usize) -> Option<BTreeMap<Vec<WordId>, f64>> {
        let (paths, complete) = self.explore(usize::MAX, f64::from(bound), budget, usize::MAX);
        if !complete {
            return None;
        }
        let mut out = BTreeMap::new();
        for (words, cost) in paths {
            out.entry(words).or_insert(cost);
        }
        Some(out)
    }

    /// The best path as per-word hypotheses: word, recognition frame,
    /// and lattice-posterior confidence.
    pub fn best_path_detail(&self) -> Vec<WordHyp> {
        let (paths, _) = self.explore_arcs(1, f64::INFINITY, EXPLORE_BUDGET, 64);
        let Some((arc_path, _)) = paths.into_iter().next() else {
            return Vec::new();
        };
        arc_path
            .iter()
            .filter_map(|&ai| {
                let a = &self.arcs[ai as usize];
                (a.word != 0).then(|| WordHyp {
                    word: a.word,
                    frame: self.arc_frame(a),
                    confidence: a.posterior,
                })
            })
            .collect()
    }

    /// Best-first path enumeration returning word sequences; see
    /// [`WordLattice::explore_arcs`].
    fn explore(
        &self,
        max_paths: usize,
        cost_bound: f64,
        budget: usize,
        per_node_cap: usize,
    ) -> (Vec<(Vec<WordId>, f64)>, bool) {
        let (paths, complete) = self.explore_arcs(max_paths, cost_bound, budget, per_node_cap);
        let out = paths
            .into_iter()
            .map(|(arc_path, cost)| {
                let words: Vec<WordId> = arc_path
                    .iter()
                    .map(|&ai| self.arcs[ai as usize].word)
                    .filter(|&w| w != 0)
                    .collect();
                (words, cost)
            })
            .collect();
        (out, complete)
    }

    /// Core best-first enumeration over arc paths. Returns up to
    /// `max_paths` paths with distinct word sequences, each as the arc
    /// index list and its total cost, plus whether the enumeration ran
    /// to natural completion (as opposed to hitting `budget`).
    ///
    /// Two partial paths reaching the same node with the same word
    /// prefix are merged, keeping the cheaper (their suffix sets are
    /// identical, so the costlier one can never yield a distinct
    /// sequence or a better cost) — without this, time-alignment
    /// variants of one word sequence crowd out genuinely different
    /// sequences and the search degenerates.
    ///
    /// Heap items carry no vectors. A word prefix is an id in a
    /// parent-pointer trie (`(parent prefix, word) -> prefix`), so equal
    /// prefixes have equal ids; an arc path is a parent chain that is
    /// only walked for the paths returned.
    fn explore_arcs(
        &self,
        max_paths: usize,
        cost_bound: f64,
        budget: usize,
        per_node_cap: usize,
    ) -> (Vec<(Vec<u32>, f64)>, bool) {
        const SUPER_FINAL: u32 = u32::MAX;
        /// The empty prefix, and the parent of a one-arc path.
        const ROOT: u32 = 0;
        #[derive(Debug)]
        struct Item {
            est: f64,
            seq: u64,
            node: u32,
            g: f64,
            /// Index into `steps` of the last arc taken.
            path: u32,
            /// Id of the word sequence so far.
            prefix: u32,
        }
        impl PartialEq for Item {
            fn eq(&self, o: &Self) -> bool {
                self.est.total_cmp(&o.est).is_eq() && self.seq == o.seq
            }
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Item {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.est.total_cmp(&o.est).then(self.seq.cmp(&o.seq))
            }
        }

        let mut out: Vec<(Vec<u32>, f64)> = Vec::new();
        if self.finals.is_empty() {
            return (out, true);
        }
        let mut final_weight = vec![f32::INFINITY; self.nodes.len()];
        for &(d, fw) in &self.finals {
            final_weight[d as usize] = final_weight[d as usize].min(fw);
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<Item>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut pops = vec![0usize; self.nodes.len()];
        // `(parent step, arc)` per path extension; entry ROOT is the
        // empty path's placeholder.
        let mut steps: Vec<(u32, u32)> = vec![(ROOT, 0)];
        // Prefix trie: ids are dense from ROOT, `emitted[id]` marks
        // word sequences already returned.
        let mut prefix_ids: TokenMap<(u32, WordId), u32> = TokenMap::default();
        let mut emitted = vec![false];
        // Best g per (node, word prefix): the alignment-merge table.
        let mut best_prefix: TokenMap<(u32, u32), f64> = TokenMap::default();
        let start_est = f64::from(self.nodes[self.start as usize].backward);
        best_prefix.insert((self.start, ROOT), 0.0);
        heap.push(std::cmp::Reverse(Item {
            est: start_est,
            seq,
            node: self.start,
            g: 0.0,
            path: ROOT,
            prefix: ROOT,
        }));
        let mut total_pops = 0usize;
        while let Some(std::cmp::Reverse(item)) = heap.pop() {
            if item.est > cost_bound {
                break; // everything still queued is costlier
            }
            total_pops += 1;
            if total_pops > budget {
                return (out, false);
            }
            if item.node == SUPER_FINAL {
                if !std::mem::replace(&mut emitted[item.prefix as usize], true) {
                    let mut arcs = Vec::new();
                    let mut at = item.path;
                    while at != ROOT {
                        let (parent, arc) = steps[at as usize];
                        arcs.push(arc);
                        at = parent;
                    }
                    arcs.reverse();
                    out.push((arcs, item.g));
                    if out.len() >= max_paths {
                        return (out, true);
                    }
                }
                continue;
            }
            // A cheaper path already reached this node with this word
            // prefix: this one is a dominated alignment variant.
            if best_prefix
                .get(&(item.node, item.prefix))
                .is_some_and(|&g0| g0 < item.g)
            {
                continue;
            }
            let u = item.node as usize;
            if pops[u] >= per_node_cap {
                continue;
            }
            pops[u] += 1;
            let fw = final_weight[u];
            if fw.is_finite() {
                let g = item.g + f64::from(fw);
                seq += 1;
                heap.push(std::cmp::Reverse(Item {
                    est: g,
                    seq,
                    node: SUPER_FINAL,
                    g,
                    path: item.path,
                    prefix: item.prefix,
                }));
            }
            let (lo, hi) = self.out_range(item.node);
            for (off, a) in self.arcs[lo..hi].iter().enumerate() {
                let g = item.g + f64::from(a.weight);
                let est = g + f64::from(self.nodes[a.to as usize].backward);
                if est > cost_bound {
                    continue;
                }
                let prefix = if a.word == 0 {
                    item.prefix
                } else {
                    *prefix_ids.entry((item.prefix, a.word)).or_insert_with(|| {
                        emitted.push(false);
                        (emitted.len() - 1) as u32
                    })
                };
                match best_prefix.get(&(a.to, prefix)) {
                    Some(&g0) if g0 <= g => continue, // dominated
                    _ => {
                        best_prefix.insert((a.to, prefix), g);
                    }
                }
                steps.push((item.path, (lo + off) as u32));
                seq += 1;
                heap.push(std::cmp::Reverse(Item {
                    est,
                    seq,
                    node: a.to,
                    g,
                    path: (steps.len() - 1) as u32,
                    prefix,
                }));
            }
        }
        (out, true)
    }

    /// Whether two lattices are bit-for-bit identical: same structure
    /// and identical float bits for every weight, score, and posterior.
    /// The verify matrix's determinism A/Bs compare with this.
    pub fn bit_identical(&self, other: &WordLattice) -> bool {
        self.start == other.start
            && self.num_frames == other.num_frames
            && self.best_cost.to_bits() == other.best_cost.to_bits()
            && self.nodes.len() == other.nodes.len()
            && self.arcs.len() == other.arcs.len()
            && self.finals.len() == other.finals.len()
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                a.frame == b.frame
                    && a.key == b.key
                    && a.forward.to_bits() == b.forward.to_bits()
                    && a.backward.to_bits() == b.backward.to_bits()
                    && a.log_forward.to_bits() == b.log_forward.to_bits()
                    && a.log_backward.to_bits() == b.log_backward.to_bits()
            })
            && self.arcs.iter().zip(&other.arcs).all(|(a, b)| {
                a.from == b.from
                    && a.to == b.to
                    && a.word == b.word
                    && a.weight.to_bits() == b.weight.to_bits()
                    && a.posterior.to_bits() == b.posterior.to_bits()
            })
            && self
                .finals
                .iter()
                .zip(&other.finals)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtrace_recovers_sequence() {
        let mut l = Lattice::new();
        let a = l.push(LATTICE_ROOT, 10, 0);
        let b = l.push(a, 20, 5);
        let c = l.push(b, 30, 9);
        assert_eq!(l.backtrace(c), vec![10, 20, 30]);
        assert_eq!(l.backtrace(a), vec![10]);
        assert_eq!(l.backtrace(LATTICE_ROOT), Vec::<WordId>::new());
        assert_eq!(l.backtrace_spanned(c), vec![(10, 0), (20, 5), (30, 9)]);
    }

    #[test]
    fn branches_share_prefixes() {
        let mut l = Lattice::new();
        let a = l.push(LATTICE_ROOT, 1, 0);
        let b1 = l.push(a, 2, 3);
        let b2 = l.push(a, 3, 3);
        assert_eq!(l.backtrace(b1), vec![1, 2]);
        assert_eq!(l.backtrace(b2), vec![1, 3]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    #[should_panic(expected = "dangling backpointer")]
    fn dangling_prev_panics() {
        let mut l = Lattice::new();
        l.push(5, 1, 0);
    }

    #[test]
    fn tape_records_only_while_recording() {
        let mut l = Lattice::new();
        l.advance_pop(&[42]);
        l.record(0, 0, 0, 1.0);
        assert_eq!(l.tape.len(), 0);
        assert_eq!(l.keys.len(), 0, "an untaped decode snapshots no keys");
        l.clear();
        l.set_recording(true);
        l.advance_pop(&[42]);
        l.record(0, 0, 3, 1.0);
        l.start_closure();
        l.record(0, 1, 0, 1.5);
        assert_eq!(l.tape.len(), 2);
        // Populations are implied by the segments: population 0 taped
        // nothing and has one key, population 1 one emitting then one
        // closure record.
        let segs: Vec<(usize, usize, usize)> = l
            .segments
            .iter()
            .map(|s| (s.start, s.eps, s.keys))
            .collect();
        assert_eq!(segs, vec![(0, 0, 0), (0, 1, 1)]);
        // clear() drops the tape and switches recording back off, but
        // keeps the blocks for the next utterance.
        l.clear();
        assert_eq!(l.tape.len(), 0);
        assert_eq!(l.keys.len(), 0);
        assert!(l.tape.tail.capacity() > 0 && l.keys.tail.capacity() > 0);
        assert!(l.segments.is_empty());
        assert!(!l.is_recording());
        assert_eq!(l.cur_pop, 0);
    }

    #[test]
    fn blocks_slice_and_index_across_block_boundaries() {
        let mut b = Blocks::<u64> {
            test_len: Some(3),
            ..Default::default()
        };
        for round in 0..2 {
            b.clear();
            b.extend_from_slice(&[0, 1]);
            for v in 2..7 {
                b.push(v);
            }
            b.extend_from_slice(&[7, 8, 9, 10]);
            assert_eq!(b.len(), 11);
            for lo in 0..=11 {
                for hi in lo..=11 {
                    let want: Vec<u64> = (lo as u64..hi as u64).collect();
                    let got: Vec<u64> = b.slices(lo, hi).flatten().copied().collect();
                    assert_eq!(got, want, "round {round} {lo}..{hi}");
                    // The sweep's reverse scan: blocks last to first,
                    // each one back to front.
                    let back: Vec<u64> = b
                        .slices(lo, hi)
                        .rev()
                        .flat_map(|s| s.iter().rev())
                        .copied()
                        .collect();
                    assert!(back.iter().rev().eq(&want), "round {round} {lo}..{hi}");
                }
            }
            assert!((0..11).all(|i| b.get(i) == i as u64));
            // The second round refills the first round's blocks.
            assert_eq!((b.full.len(), b.spare.len()), (3, 0));
        }
    }

    /// A minimal AM stub: final, with weight 0, exactly in the AM
    /// states of the given keys.
    struct FinalStates<'a>(&'a [u64]);
    impl AmSource for FinalStates<'_> {
        fn start(&self) -> u32 {
            0
        }
        fn num_states(&self) -> usize {
            1 << 20
        }
        fn final_weight(&self, s: u32) -> Option<f32> {
            self.0.iter().any(|&k| (k >> 32) as u32 == s).then_some(0.0)
        }
        fn state_addr(&self, _s: u32) -> u64 {
            0
        }
        fn for_each_arc(&self, _s: u32, _f: &mut dyn FnMut(crate::ArcVisit)) {}
    }

    fn key(am: u32, lm: u32) -> u64 {
        (u64::from(am) << 32) | u64::from(lm)
    }

    type KeyRecord = (u64, u64, WordId, f32);

    /// A tape written by key, the way the tests below are phrased, and
    /// replayed by entry index: [`KeyTape::replay`] numbers each
    /// population's keys in order of first appearance, as a token store
    /// numbers its entries, with the seed `key(0, 0)` first.
    #[derive(Default)]
    struct KeyTape {
        /// Per population: its emitting records (source in the previous
        /// population), then its closure records.
        pops: Vec<[Vec<KeyRecord>; 2]>,
    }

    impl KeyTape {
        fn advance_pop(&mut self) {
            self.pops.push(Default::default());
        }

        fn record_emit(&mut self, src: u64, dst: u64, word: WordId, cost: f32) {
            self.pops.last_mut().unwrap()[0].push((src, dst, word, cost));
        }

        fn record_eps(&mut self, src: u64, dst: u64, word: WordId, cost: f32) {
            self.pops.last_mut().unwrap()[1].push((src, dst, word, cost));
        }

        /// The recorded tape and the last population's key lane, which
        /// holds `finals` too.
        fn replay(&self, finals: &[u64]) -> (Lattice, Vec<u64>) {
            self.replay_pruned(finals, None, 0)
        }

        /// [`KeyTape::replay`] in blocks of `block_len` elements (the
        /// shipped size for `None`), pruning at the boundary into
        /// population `p` when bit `p - 1` of `prune_at` is set.
        fn replay_pruned(
            &self,
            finals: &[u64],
            block_len: Option<usize>,
            prune_at: u32,
        ) -> (Lattice, Vec<u64>) {
            fn entry(lane: &mut Vec<u64>, k: u64) -> u32 {
                let e = lane.iter().position(|&x| x == k).unwrap_or_else(|| {
                    lane.push(k);
                    lane.len() - 1
                });
                e as u32
            }
            let mut lanes = vec![Vec::new(); self.pops.len()];
            entry(&mut lanes[0], key(0, 0));
            for (p, [emits, closure]) in self.pops.iter().enumerate() {
                for &(s, d, ..) in emits {
                    entry(&mut lanes[p - 1], s);
                    entry(&mut lanes[p], d);
                }
                for &(s, d, ..) in closure {
                    entry(&mut lanes[p], s);
                    entry(&mut lanes[p], d);
                }
            }
            for &f in finals {
                entry(lanes.last_mut().unwrap(), f);
            }
            let mut tape = Lattice::new();
            if let Some(len) = block_len {
                tape.set_block_len(len);
            }
            tape.set_recording(true);
            for (p, [emits, closure]) in self.pops.iter().enumerate() {
                if p > 0 {
                    tape.advance(&lanes[p - 1], prune_at >> (p - 1) & 1 == 1);
                }
                for &(s, d, word, cost) in emits {
                    let (s, d) = (entry(&mut lanes[p - 1], s), entry(&mut lanes[p], d));
                    tape.record(s, d, word, cost);
                }
                tape.start_closure();
                for &(s, d, word, cost) in closure {
                    let (s, d) = (entry(&mut lanes[p], s), entry(&mut lanes[p], d));
                    tape.record(s, d, word, cost);
                }
            }
            (tape, lanes.pop().unwrap())
        }
    }

    /// A tape seeded at `key(0, 0)`.
    fn seeded_tape() -> KeyTape {
        let mut tape = KeyTape::default();
        tape.advance_pop();
        tape
    }

    /// Builds with `finals` as the final tokens of the last population.
    fn build_with_finals(tape: &KeyTape, finals: &[u64], beam: f32) -> WordLattice {
        build_replayed(tape.replay(finals), finals, beam)
    }

    /// Builds a replayed tape with `finals` as the final tokens of its
    /// last population, whose key lane is `keys`.
    fn build_replayed((tape, keys): (Lattice, Vec<u64>), finals: &[u64], beam: f32) -> WordLattice {
        let mut last = crate::search::TokenStore::default();
        for k in keys {
            // The builder reads only the keys.
            last.insert(
                k,
                crate::search::Token {
                    cost: 0.0,
                    lat: LATTICE_ROOT,
                },
            );
        }
        WordLattice::build(&FinalStates(finals), &tape, &last, beam)
    }

    /// Hand-built diamond: start splits into two one-frame hypotheses
    /// (words 1 and 2) that rejoin at a shared final token. With
    /// `dead_end`, a third and cheapest branch (word 3) runs alongside
    /// into a token that is not final.
    fn diamond_tape(dead_end: bool) -> KeyTape {
        let mut tape = seeded_tape();
        tape.advance_pop();
        tape.record_emit(key(0, 0), key(1, 1), 1, 1.0);
        tape.record_emit(key(0, 0), key(2, 2), 2, 3.0);
        if dead_end {
            tape.record_emit(key(0, 0), key(4, 4), 3, 0.5);
            tape.record_eps(key(4, 4), key(5, 5), 0, 0.75);
        }
        tape.advance_pop();
        tape.record_emit(key(1, 1), key(3, 3), 0, 2.0);
        tape.record_emit(key(2, 2), key(3, 3), 0, 4.0);
        if dead_end {
            tape.record_emit(key(5, 5), key(6, 6), 0, 1.0);
        }
        tape
    }

    fn diamond(beam: f32) -> WordLattice {
        build_with_finals(&diamond_tape(false), &[key(3, 3)], beam)
    }

    #[test]
    fn dead_end_branch_never_reaches_the_lattice() {
        let plain = diamond(10.0);
        let lat = build_with_finals(&diamond_tape(true), &[key(3, 3)], 10.0);
        assert_eq!(lat.num_nodes(), plain.num_nodes());
        assert_eq!(lat.num_arcs(), plain.num_arcs());
        assert!(lat.bit_identical(&plain));
        for dead in [key(4, 4), key(5, 5), key(6, 6)] {
            assert!(lat.nodes().iter().all(|n| n.key != dead));
        }
        // Not even as working state: the slice the builder numbers and
        // sorts is the two-branch diamond's.
        let (tape, last) = diamond_tape(true).replay(&[key(3, 3)]);
        let fin = last.iter().position(|&k| k == key(3, 3)).unwrap() as u32;
        let (nodes, arcs) = tape.coreachable(&last, [fin].into_iter());
        assert_eq!((nodes.len(), arcs.len()), (4, 4));
    }

    /// The dead-end diamond, then a population that extends only the
    /// shared token `key(3, 3)` (or, with `starved`, nothing), then an
    /// empty one, so that a prune can see population 3 as its frontier.
    fn extended_diamond(starved: bool) -> KeyTape {
        let mut tape = diamond_tape(true);
        tape.advance_pop();
        if !starved {
            tape.record_emit(key(3, 3), key(7, 7), 0, 2.5);
        }
        tape.advance_pop();
        tape
    }

    #[test]
    fn prune_keeps_what_reaches_the_frontier_and_the_seed() {
        // Pruned entering population 4, the frontier is population 3:
        // the two branches into `key(3, 3)` reach it and the dead end
        // does not.
        let (tape, _) = extended_diamond(false).replay_pruned(&[], Some(2), 0b1000);
        let kept = |tape: &Lattice| {
            let keys: Vec<u64> = (0..tape.keys.len()).map(|i| tape.keys.get(i)).collect();
            let segs: Vec<(usize, usize, usize)> = tape
                .segments
                .iter()
                .map(|s| (s.start, s.eps, s.keys))
                .collect();
            (tape.tape.len(), keys, segs)
        };
        let seed = key(0, 0);
        let (records, keys, segs) = kept(&tape);
        assert_eq!(records, 5);
        assert_eq!(keys, vec![seed, key(1, 1), key(2, 2), key(3, 3), key(7, 7)]);
        assert_eq!(
            segs,
            vec![(0, 0, 0), (0, 2, 1), (2, 4, 3), (4, 5, 4), (5, 5, 5)]
        );
        // A prune with nothing on the frontier keeps the seed token and
        // no record.
        let (tape, _) = extended_diamond(true).replay_pruned(&[], Some(2), 0b1000);
        let (records, keys, _) = kept(&tape);
        assert_eq!((records, keys), (0, vec![seed]));
        // Whole blocks left empty go back to the spare list.
        assert!(
            tape.tape.spare.len() >= 3,
            "{} spare",
            tape.tape.spare.len()
        );
    }

    #[test]
    fn late_non_improving_relaxation_is_found_by_the_fixpoint() {
        // One frame: A (word 1) and A' (word 2) are emitted, then the
        // closure runs A -> B, B -> C and only afterwards A' -> B,
        // which does not improve B and so is taped after B's own
        // expansion. Scanning the closure backward once meets A' -> B
        // before B -> C has shown B to be live.
        let (a, a2, b, c) = (key(1, 0), key(2, 0), key(3, 0), key(4, 0));
        let mut tape = seeded_tape();
        tape.advance_pop();
        tape.record_emit(key(0, 0), a, 1, 1.0);
        tape.record_emit(key(0, 0), a2, 2, 1.25);
        tape.record_eps(a, b, 0, 1.5);
        tape.record_eps(b, c, 0, 2.0);
        tape.record_eps(a2, b, 0, 1.75);
        let lat = build_with_finals(&tape, &[c], 1.0);
        assert_eq!(lat.best_cost(), 2.0);
        assert!(lat.nodes().iter().any(|n| n.key == a2), "A' was dropped");
        assert_eq!((lat.num_nodes(), lat.num_arcs()), (5, 5));
        assert_eq!(lat.nbest(5), vec![(vec![1], 2.0), (vec![2], 2.25)]);
        // Outside the beam it goes, like any other costly branch.
        let tight = build_with_finals(&tape, &[c], 0.125);
        assert!(tight.nodes().iter().all(|n| n.key != a2));
        assert_eq!(tight.nbest(5), vec![(vec![1], 2.0)]);
    }

    #[test]
    fn late_non_improving_relaxation_survives_a_prune() {
        // The tape above, extended by two frames (C to D, then D to a
        // final E) and pruned entering the last one, with D as the
        // frontier: the prune's sweep needs the fixpoint as much as the
        // build's.
        let (a, a2, b, c) = (key(1, 0), key(2, 0), key(3, 0), key(4, 0));
        let (d, e) = (key(5, 0), key(6, 0));
        let mut tape = seeded_tape();
        tape.advance_pop();
        tape.record_emit(key(0, 0), a, 1, 1.0);
        tape.record_emit(key(0, 0), a2, 2, 1.25);
        tape.record_eps(a, b, 0, 1.5);
        tape.record_eps(b, c, 0, 2.0);
        tape.record_eps(a2, b, 0, 1.75);
        tape.advance_pop();
        tape.record_emit(c, d, 0, 2.5);
        tape.advance_pop();
        tape.record_emit(d, e, 0, 3.0);
        let whole = build_with_finals(&tape, &[e], 1.0);
        assert!(whole.nodes().iter().any(|n| n.key == a2), "A' was dropped");
        let (pruned, keys) = tape.replay_pruned(&[e], None, 0b100);
        assert_eq!(pruned.prunes, 1);
        let pruned = build_replayed((pruned, keys), &[e], 1.0);
        assert!(pruned.bit_identical(&whole));
    }

    #[test]
    fn diamond_builds_exact_scores_and_nbest() {
        let lat = diamond(10.0);
        assert_eq!(lat.num_frames(), 2);
        assert_eq!(lat.num_nodes(), 4);
        assert_eq!(lat.num_arcs(), 4);
        assert_eq!(lat.best_cost(), 2.0);
        // Node forward costs are the recorded relaxation minima.
        let n3 = lat.nodes().iter().find(|n| n.key == key(3, 3)).unwrap();
        assert_eq!(n3.forward, 2.0);
        assert_eq!(n3.backward, 0.0);
        // Both paths, best first, deterministic.
        let nb = lat.nbest(5);
        assert_eq!(nb.len(), 2);
        assert_eq!(nb[0], (vec![1], 2.0));
        assert_eq!(nb[1], (vec![2], 4.0));
        // Path slack: worst arc is on the cost-4 path.
        assert!((lat.max_path_slack() - 2.0).abs() < 1e-6);
        // Posteriors: the two branches sum to ~1 on both frames.
        for f in 0..2 {
            assert!((lat.emitting_posterior_sum(f) - 1.0).abs() < 1e-4);
        }
        // The cheaper branch dominates the posterior mass.
        let a1 = lat.arcs().iter().find(|a| a.word == 1).unwrap();
        let a2 = lat.arcs().iter().find(|a| a.word == 2).unwrap();
        assert!(a1.posterior > a2.posterior);
        // Best-path detail carries the word, frame, and confidence.
        let detail = lat.best_path_detail();
        assert_eq!(detail.len(), 1);
        assert_eq!(detail[0].word, 1);
        assert_eq!(detail[0].frame, 0);
        assert!((detail[0].confidence - a1.posterior).abs() < 1e-6);
    }

    #[test]
    fn lattice_beam_prunes_the_costly_branch() {
        let lat = diamond(1.0);
        // The word-2 branch is 2.0 over the best path: pruned.
        assert_eq!(lat.nbest(5), vec![(vec![1], 2.0)]);
        assert_eq!(lat.num_arcs(), 2);
        assert!(lat.max_path_slack() <= 1.0);
        // Every kept frame's posterior mass is the single survivor.
        for f in 0..2 {
            assert!((lat.emitting_posterior_sum(f) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn paths_within_enumerates_and_bounds() {
        let lat = diamond(10.0);
        let all = lat.paths_within(10.0, 10_000).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[&vec![1u32]], 2.0);
        assert_eq!(all[&vec![2u32]], 4.0);
        let tight = lat.paths_within(3.0, 10_000).unwrap();
        assert_eq!(tight.len(), 1);
        // A zero budget reports incompleteness instead of lying.
        assert!(lat.paths_within(10.0, 0).is_none());
    }

    #[test]
    fn empty_lattice_is_sane() {
        let lat = WordLattice::empty();
        assert!(lat.is_empty());
        assert_eq!(lat.best_cost(), f32::INFINITY);
        assert_eq!(lat.nbest(3), Vec::<(Vec<WordId>, f32)>::new());
        assert!(lat.best_path_detail().is_empty());
        assert_eq!(lat.max_path_slack(), 0.0);
        assert!(lat.bit_identical(&WordLattice::empty()));
    }

    #[test]
    #[should_panic(expected = "n must be > 0")]
    fn nbest_zero_panics() {
        diamond(10.0).nbest(0);
    }

    type Node = (u32, u64);
    /// What the builder is compared on: nodes with forward/backward
    /// bits, arcs by endpoint with weight bits, final nodes.
    type Summary = (
        Vec<(Node, u32, u32)>,
        Vec<(Node, Node, WordId, u32)>,
        Vec<Node>,
    );

    /// The lattice the slow way, over *all* records: every endpoint is
    /// a node, forward is the cheapest record into it, backward is
    /// relaxed over every arc until nothing moves, then the beam rule.
    /// All finals weigh 0, as under [`AllFinal`].
    fn brute_force(
        recs: &[(Node, Node, WordId, f32)],
        start: Node,
        finals: &[Node],
        beam: f32,
    ) -> Summary {
        const INF: f32 = f32::INFINITY;
        let mut fv: BTreeMap<Node, f32> = finals.iter().map(|&f| (f, INF)).collect();
        fv.insert(start, 0.0);
        let mut cheapest: BTreeMap<(Node, Node, WordId), f32> = BTreeMap::new();
        for &(s, d, word, cost) in recs {
            fv.entry(s).or_insert(INF);
            let f = fv.entry(d).or_insert(INF);
            *f = f.min(cost);
            let c = cheapest.entry((s, d, word)).or_insert(INF);
            *c = c.min(cost);
        }
        let arcs: Vec<(Node, Node, WordId, f32)> = cheapest
            .iter()
            .map(|(&(s, d, word), &cost)| (s, d, word, cost - fv[&s]))
            .filter(|&(s, d, _, w)| s != d && w.is_finite())
            .collect();
        let mut bv: BTreeMap<Node, f32> = fv.keys().map(|&k| (k, INF)).collect();
        for f in finals {
            bv.insert(*f, 0.0);
        }
        loop {
            let mut moved = false;
            for &(s, d, _, w) in &arcs {
                let through = w + bv[&d];
                if through < bv[&s] {
                    bv.insert(s, through);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let bound = finals.iter().map(|f| fv[f]).fold(INF, f32::min) + beam;
        if !bound.is_finite() {
            return Summary::default();
        }
        let arcs: Vec<_> = arcs
            .into_iter()
            .filter(|&(s, d, _, w)| fv[&s] + w + bv[&d] <= bound)
            .collect();
        let finals: Vec<Node> = finals.iter().copied().filter(|f| fv[f] <= bound).collect();
        let mut nodes: std::collections::BTreeSet<Node> =
            arcs.iter().flat_map(|&(s, d, ..)| [s, d]).collect();
        nodes.insert(start);
        nodes.extend(&finals);
        (
            nodes
                .iter()
                .map(|n| (*n, fv[n].to_bits(), bv[n].to_bits()))
                .collect(),
            arcs.iter()
                .map(|&(s, d, word, w)| (s, d, word, w.to_bits()))
                .collect(),
            finals,
        )
    }

    fn summarize(lat: &WordLattice) -> Summary {
        let at = |i: u32| {
            let n = &lat.nodes()[i as usize];
            (n.frame, n.key)
        };
        (
            lat.nodes()
                .iter()
                .map(|n| ((n.frame, n.key), n.forward.to_bits(), n.backward.to_bits()))
                .collect(),
            lat.arcs()
                .iter()
                .map(|a| (at(a.from), at(a.to), a.word, a.weight.to_bits()))
                .collect(),
            lat.finals().iter().map(|&(d, _)| at(d)).collect(),
        )
    }

    type RawRecord = (u32, u32, u32);

    /// A random small tape over `pops` frames (five keys a population,
    /// costs on a quarter grid so ties are common, closure records in
    /// taping order so late non-improving relaxations are too) and its
    /// records flattened to `(population, key)` endpoints. With `empty`
    /// set, population `empty` gets no token: nothing is taped into or
    /// out of it.
    fn random_tape(
        pops: u32,
        raw: &[RawRecord],
        empty: Option<u32>,
    ) -> (KeyTape, Vec<(Node, Node, WordId, f32)>) {
        // (population, closure?, src, dst) out of one word; closure
        // records run low key to high so populations stay acyclic.
        let recs: Vec<(u32, bool, u64, u64, WordId, f32)> = raw
            .iter()
            .filter_map(|&(r, word, quarters)| {
                let pop = r % (pops + 1);
                let eps = pop == 0 || (r >> 8) % 2 == 0;
                let (s, d) = (u64::from((r >> 12) % 5), u64::from((r >> 16) % 5));
                let (s, d) = if eps { (s.min(d), s.max(d)) } else { (s, d) };
                let touches_empty = empty.is_some_and(|k| pop == k || (!eps && pop == k + 1));
                (!touches_empty && (!eps || s != d)).then(|| {
                    (
                        pop,
                        eps,
                        key(s as u32, 0),
                        key(d as u32, 0),
                        word,
                        quarters as f32 * 0.25,
                    )
                })
            })
            .collect();
        let mut tape = seeded_tape();
        let mut flat = Vec::new();
        for pop in 0..=pops {
            if pop > 0 {
                tape.advance_pop();
            }
            for &(_, _, s, d, word, cost) in recs.iter().filter(|r| r.0 == pop && !r.1) {
                tape.record_emit(s, d, word, cost);
                flat.push(((pop - 1, s), (pop, d), word, cost));
            }
            for &(_, _, s, d, word, cost) in recs.iter().filter(|r| r.0 == pop && r.1) {
                tape.record_eps(s, d, word, cost);
                flat.push(((pop, s), (pop, d), word, cost));
            }
        }
        (tape, flat)
    }

    /// The keys `final_mask` selects out of the five.
    fn final_keys(final_mask: u32) -> Vec<u64> {
        (0..5u32)
            .filter(|k| final_mask >> k & 1 == 1)
            .map(|k| key(k, 0))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random small tapes: the builder agrees with [`brute_force`]
        /// on nodes, arcs, finals and every tropical bit.
        #[test]
        fn builder_matches_brute_force_on_random_tapes(
            pops in 1u32..5,
            raw in proptest::collection::vec((proptest::any::<u32>(), 0u32..4, 1u32..24), 0..48),
            final_mask in 1u32..32,
            beam_quarters in 0u32..16,
        ) {
            let (tape, flat) = random_tape(pops, &raw, None);
            let finals = final_keys(final_mask);
            let final_nodes: Vec<Node> = finals.iter().map(|&k| (pops, k)).collect();
            let beam = beam_quarters as f32 * 0.25;

            let lat = build_with_finals(&tape, &finals, beam);
            let want = brute_force(&flat, (0, key(0, 0)), &final_nodes, beam);
            proptest::prop_assert_eq!(summarize(&lat), want);
        }

        /// The same random tapes pruned at random population
        /// boundaries, each prune seeded with the whole frontier, in
        /// blocks of one to four elements: the lattice is bit-identical
        /// to the unpruned build. Some tapes leave one population without
        /// a token, so some prunes see an empty frontier.
        #[test]
        fn pruning_at_any_boundary_leaves_the_lattice_bit_identical(
            pops in 1u32..7,
            raw in proptest::collection::vec((proptest::any::<u32>(), 0u32..4, 1u32..24), 0..64),
            final_mask in 1u32..32,
            beam_quarters in 0u32..16,
            prune_at in 1u32..64,
            block_len in 1usize..5,
            empty in 0u32..21,
        ) {
            let empty = (1..pops).contains(&empty).then_some(empty);
            let (tape, _) = random_tape(pops, &raw, empty);
            let finals = final_keys(final_mask);
            let beam = beam_quarters as f32 * 0.25;

            let replayed = tape.replay_pruned(&finals, Some(block_len), prune_at);
            proptest::prop_assert_eq!(
                replayed.0.prunes,
                (prune_at & ((1 << pops) - 1)).count_ones() as usize
            );
            // At the drawn beam and at one no path exceeds, so that no
            // arc a prune mangled can hide outside the beam.
            for beam in [beam, 1e3] {
                let whole = build_with_finals(&tape, &finals, beam);
                let pruned = build_replayed(
                    (replayed.0.clone(), replayed.1.clone()),
                    &finals,
                    beam,
                );
                proptest::prop_assert!(pruned.bit_identical(&whole), "{:?}\nvs\n{:?}", pruned, whole);
            }
        }
    }

    #[test]
    fn bit_identical_detects_structural_difference() {
        let a = diamond(10.0);
        let b = diamond(1.0);
        assert!(a.bit_identical(&diamond(10.0)));
        assert!(!a.bit_identical(&b));
    }
}
