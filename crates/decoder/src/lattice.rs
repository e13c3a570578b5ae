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
//! or epsilon, improving or not — is appended as a raw
//! `(source token, destination token, word, destination cost)` record.
//! Because the tape captures *all* surviving incoming arcs per
//! (frame, state), the post-pass can reconstruct the exact set of
//! hypotheses the beam search considered, not just the single best
//! (the GPU exact-lattice decoder of Povey et al. materializes lattices
//! from token passing the same way). The tape is contents-neutral for
//! search: recording never changes decode output, stats, or the trace
//! event stream.
//!
//! The post-pass (`WordLattice::build`) first sweeps the tape backward
//! from the final tokens, keeping only the records that can reach one
//! (a fraction of a percent of a large-vocabulary tape), and then works
//! on that slice in two semirings through the [`Semiring`] trait:
//! tropical (min, +) for the exact forward/backward Viterbi scores that
//! drive lattice-beam pruning, and log (-log-sum-exp, +) for the
//! forward/backward occupation scores that yield arc posteriors —
//! per-word confidence.

use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::hash::BuildHasherDefault;

use unfold_lm::WordId;
use unfold_wfst::{LogWeight, Semiring, TropicalWeight};

use crate::search::{DetHasher, TokenMap, TokenStore};
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
/// the token keyed `src_key` into the token keyed `dst_key`, carrying
/// `word` (0 for none), arriving with path cost `dst_cost`. Which
/// populations the two tokens belong to is not stored: it follows from
/// the [`PopSegment`] the record sits in.
#[derive(Debug, Clone, Copy)]
struct TapeArc {
    src_key: u64,
    dst_key: u64,
    word: WordId,
    dst_cost: f32,
}

const _: () = assert!(std::mem::size_of::<TapeArc>() == 24);

/// Where one population's records sit on the tape. Both kernels tape
/// every emitting relaxation of a frame before its closure starts, so
/// a population `p` is two runs: `start..eps` are emitting records
/// (source in `p - 1`, destination in `p`), and `eps..` up to the next
/// segment's `start` are closure records (both ends in `p`).
#[derive(Debug, Clone, Copy, Default)]
struct PopSegment {
    start: usize,
    eps: usize,
}

/// A kept tape record with its populations made explicit.
#[derive(Debug, Clone, Copy)]
struct SliceArc {
    src: (u32, u64),
    dst: (u32, u64),
    word: WordId,
    dst_cost: f32,
}

impl TapeArc {
    fn placed(&self, src_pop: u32, dst_pop: u32) -> SliceArc {
        SliceArc {
            src: (src_pop, self.src_key),
            dst: (dst_pop, self.dst_key),
            word: self.word,
            dst_cost: self.dst_cost,
        }
    }
}

type KeySet = HashSet<u64, BuildHasherDefault<DetHasher>>;

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
    /// Token key of the seed token (population 0).
    start_key: u64,
    /// Raw expansion records, in the order the search attempted them.
    tape: Vec<TapeArc>,
    /// One segment per population while recording (`cur_pop + 1` of
    /// them), indexed by population.
    segments: Vec<PopSegment>,
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
    /// (scratch reuse between utterances). Recording is switched off;
    /// each lattice-producing entry point re-enables it explicitly.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.tape.clear();
        self.segments.clear();
        self.recording = false;
        self.cur_pop = 0;
        self.start_key = 0;
    }

    /// Enables or disables the expansion tape, before the seed token is
    /// recorded. Contents-neutral for the search itself.
    pub(crate) fn set_recording(&mut self, on: bool) {
        debug_assert!(
            self.tape.is_empty() && self.cur_pop == 0,
            "tape switched mid-decode"
        );
        self.recording = on;
        self.segments.clear();
        if on {
            self.segments.push(PopSegment::default());
        }
    }

    /// Whether the expansion tape is being recorded.
    pub(crate) fn is_recording(&self) -> bool {
        self.recording
    }

    /// Records the seed token's key (population 0).
    pub(crate) fn record_start(&mut self, key: u64) {
        if self.recording {
            self.start_key = key;
        }
    }

    /// Advances to the next token population; called once at the start
    /// of every frame expansion.
    pub(crate) fn advance_pop(&mut self) {
        self.cur_pop += 1;
        if self.recording {
            let at = self.tape.len();
            self.segments.push(PopSegment { start: at, eps: at });
        }
    }

    /// Records an emitting relaxation: an arc from `src_key` in the
    /// previous population into `dst_key` in the current one.
    #[inline]
    pub(crate) fn record_emit(&mut self, src_key: u64, dst_key: u64, word: WordId, dst_cost: f32) {
        if self.recording {
            debug_assert!(self.cur_pop >= 1, "emitting arc before any frame");
            self.tape.push(TapeArc {
                src_key,
                dst_key,
                word,
                dst_cost,
            });
            let seg = &mut self.segments[self.cur_pop as usize];
            debug_assert_eq!(seg.eps + 1, self.tape.len(), "emit taped after closure");
            seg.eps = self.tape.len();
        }
    }

    /// Records an epsilon-closure relaxation within the current
    /// population.
    #[inline]
    pub(crate) fn record_eps(&mut self, src_key: u64, dst_key: u64, word: WordId, dst_cost: f32) {
        if self.recording {
            self.tape.push(TapeArc {
                src_key,
                dst_key,
                word,
                dst_cost,
            });
        }
    }

    /// The co-reachable slice of the tape: every token that some chain
    /// of taped relaxations connects to a key in `finals` (a token of
    /// the last population), plus the seed token, as `(population,
    /// key)` nodes, and every record whose destination is such a
    /// token. Any record's source is then such a token too, so the
    /// node set is closed under predecessors and each kept node keeps
    /// *all* of its incoming records.
    ///
    /// Populations are walked last to first with one small key set of
    /// live tokens. Closure records are rescanned until a pass adds
    /// nothing: a relaxation that did not improve its destination is
    /// taped after the destination's own expansion, so a single
    /// reverse scan can meet it before its destination is known to be
    /// live.
    fn coreachable(&self, finals: impl Iterator<Item = u64>) -> (Vec<(u32, u64)>, Vec<SliceArc>) {
        let mut nodes: Vec<(u32, u64)> = Vec::new();
        let mut arcs: Vec<SliceArc> = Vec::new();
        let mut alive = KeySet::default();
        let mut alive_prev = KeySet::default();
        alive.extend(finals);
        for p in (0..self.segments.len()).rev() {
            let seg = self.segments[p];
            let end = self
                .segments
                .get(p + 1)
                .map_or(self.tape.len(), |s| s.start);
            let pop = p as u32;
            if p == 0 {
                alive.insert(self.start_key);
            }
            let mark = arcs.len();
            loop {
                // Only the pass that adds nothing saw the final set.
                arcs.truncate(mark);
                let mut grew = false;
                for a in self.tape[seg.eps..end].iter().rev() {
                    if alive.contains(&a.dst_key) {
                        arcs.push(a.placed(pop, pop));
                        grew |= alive.insert(a.src_key);
                    }
                }
                if !grew {
                    break;
                }
            }
            for a in &self.tape[seg.start..seg.eps] {
                if alive.contains(&a.dst_key) {
                    arcs.push(a.placed(pop - 1, pop));
                    alive_prev.insert(a.src_key);
                }
            }
            nodes.extend(alive.drain().map(|k| (pop, k)));
            std::mem::swap(&mut alive, &mut alive_prev);
        }
        (nodes, arcs)
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
        final_population: &TokenStore,
        lattice_beam: f32,
    ) -> WordLattice {
        debug_assert!(tape.is_recording(), "building a lattice without a tape");
        let t_final = tape.cur_pop;

        // Final (key, final weight) pairs from the last population.
        let mut final_keys: Vec<(u64, f32)> = Vec::new();
        for key in final_population.keys() {
            let am_state = (key >> 32) as u32;
            if let Some(fw) = am.final_weight(am_state) {
                final_keys.push((key, fw));
            }
        }

        // Node universe, canonically ordered by (population, key).
        let (mut node_meta, slice) = tape.coreachable(final_keys.iter().map(|&(k, _)| k));
        node_meta.sort_unstable();
        let n = node_meta.len();
        let id = |node: (u32, u64)| -> u32 {
            node_meta
                .binary_search(&node)
                .expect("every slice endpoint is a slice node") as u32
        };
        let start = id((0, tape.start_key));
        let final_ids: Vec<(u32, f32)> = final_keys
            .iter()
            .map(|&(k, fw)| (id((t_final, k)), fw))
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
        l.record_start(42);
        l.advance_pop();
        l.record_emit(42, 7, 0, 1.0);
        assert!(l.tape.is_empty());
        assert_eq!(l.start_key, 0);
        l.clear();
        l.set_recording(true);
        l.record_start(42);
        l.advance_pop();
        l.record_emit(42, 7, 3, 1.0);
        l.record_eps(7, 9, 0, 1.5);
        assert_eq!(l.tape.len(), 2);
        // Populations are implied by the segments: population 0 taped
        // nothing, population 1 one emitting then one closure record.
        let segs: Vec<(usize, usize)> = l.segments.iter().map(|s| (s.start, s.eps)).collect();
        assert_eq!(segs, vec![(0, 0), (0, 1)]);
        // clear() drops the tape and switches recording back off.
        l.clear();
        assert!(l.tape.is_empty());
        assert!(l.segments.is_empty());
        assert!(!l.is_recording());
        assert_eq!(l.cur_pop, 0);
    }

    /// A minimal AM stub: every state final with weight 0.
    struct AllFinal;
    impl AmSource for AllFinal {
        fn start(&self) -> u32 {
            0
        }
        fn num_states(&self) -> usize {
            1 << 20
        }
        fn final_weight(&self, _s: u32) -> Option<f32> {
            Some(0.0)
        }
        fn state_addr(&self, _s: u32) -> u64 {
            0
        }
        fn for_each_arc(&self, _s: u32, _f: &mut dyn FnMut(crate::ArcVisit)) {}
    }

    fn key(am: u32, lm: u32) -> u64 {
        (u64::from(am) << 32) | u64::from(lm)
    }

    /// A recording tape seeded at `key(0, 0)`.
    fn seeded_tape() -> Lattice {
        let mut tape = Lattice::new();
        tape.set_recording(true);
        tape.record_start(key(0, 0));
        tape
    }

    /// Builds with `finals` as the whole last population.
    fn build_with_finals(tape: &Lattice, finals: &[u64], beam: f32) -> WordLattice {
        let mut last = TokenStore::default();
        for &k in finals {
            // The builder reads only the keys.
            last.insert(
                k,
                crate::search::Token {
                    cost: 0.0,
                    lat: LATTICE_ROOT,
                },
            );
        }
        WordLattice::build(&AllFinal, tape, &last, beam)
    }

    /// Hand-built diamond: start splits into two one-frame hypotheses
    /// (words 1 and 2) that rejoin at a shared final token. With
    /// `dead_end`, a third and cheapest branch (word 3) runs alongside
    /// into a token that is not in the last population.
    fn diamond_tape(dead_end: bool) -> Lattice {
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
        let (nodes, arcs) = diamond_tape(true).coreachable([key(3, 3)].into_iter());
        assert_eq!((nodes.len(), arcs.len()), (4, 4));
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random small tapes (five keys a population, costs on a
        /// quarter grid so ties are common, closure records in taping
        /// order so late non-improving relaxations are too): the
        /// builder agrees with [`brute_force`] on nodes, arcs, finals
        /// and every tropical bit.
        #[test]
        fn builder_matches_brute_force_on_random_tapes(
            pops in 1u32..5,
            raw in proptest::collection::vec((proptest::any::<u32>(), 0u32..4, 1u32..24), 0..48),
            final_mask in 1u32..32,
            beam_quarters in 0u32..16,
        ) {
            // (population, closure?, src, dst) out of one word; closure
            // records run low key to high so populations stay acyclic.
            let recs: Vec<(u32, bool, u64, u64, WordId, f32)> = raw
                .iter()
                .filter_map(|&(r, word, quarters)| {
                    let pop = r % (pops + 1);
                    let eps = pop == 0 || (r >> 8) % 2 == 0;
                    let (s, d) = (u64::from((r >> 12) % 5), u64::from((r >> 16) % 5));
                    let (s, d) = if eps { (s.min(d), s.max(d)) } else { (s, d) };
                    (!eps || s != d)
                        .then(|| (pop, eps, key(s as u32, 0), key(d as u32, 0), word, quarters as f32 * 0.25))
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
            let final_keys: Vec<u64> = (0..5u32)
                .filter(|k| final_mask >> k & 1 == 1)
                .map(|k| key(k, 0))
                .collect();
            let final_nodes: Vec<Node> = final_keys.iter().map(|&k| (pops, k)).collect();
            let beam = beam_quarters as f32 * 0.25;

            let lat = build_with_finals(&tape, &final_keys, beam);
            let want = brute_force(&flat, (0, key(0, 0)), &final_nodes, beam);
            proptest::prop_assert_eq!(summarize(&lat), want);
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
