#![warn(missing_docs)]

//! Weighted finite-state transducer (WFST) substrate for the UNFOLD
//! reproduction.
//!
//! This crate provides the graph machinery that both the acoustic model
//! (AM) and language model (LM) of a WFST-based speech recognizer are
//! built on, plus the *offline* composition that the paper's baseline
//! systems rely on. It holds only what the on-the-fly decoder and its
//! oracles use; there is no general FST algebra (determinization,
//! minimization, ε-removal), because building and optimizing a composed
//! graph offline is what UNFOLD exists to avoid:
//!
//! * [`Wfst`] — a compact, arc-sorted transducer in CSR (compressed
//!   sparse row) form, with the 128-bit-per-arc memory layout the paper
//!   assumes for the uncompressed datasets,
//! * [`semiring`] — tropical and log semirings,
//! * [`compose`] — offline AM ∘ LM composition with failure (back-off)
//!   semantics, the operation UNFOLD moves from training time to decode
//!   time,
//! * [`shortest_path`] — the exact best path, the decoders' oracle,
//! * [`stats`] — byte-size and topology accounting used by the paper's
//!   Table 1 / Table 2 / Figure 8 experiments,
//! * [`symbols`] — label ↔ name tables.
//!
//! # Example
//!
//! ```
//! use unfold_wfst::{Wfst, WfstBuilder, Arc, EPSILON};
//!
//! let mut b = WfstBuilder::new();
//! let s0 = b.add_state();
//! let s1 = b.add_state();
//! b.set_start(s0);
//! b.set_final(s1, 0.0);
//! b.add_arc(s0, Arc::new(3, 7, 0.5, s1));
//! let fst: Wfst = b.build();
//! assert_eq!(fst.num_states(), 2);
//! assert_eq!(fst.arcs(s0)[0].olabel, 7);
//! assert!(fst.final_weight(s1).is_some());
//! # let _ = EPSILON;
//! ```

pub mod arc;
pub mod compose;
pub mod fst;
pub mod semiring;
pub mod shortest;
pub mod stats;
pub mod symbols;

pub use arc::{Arc, Label, StateId, EPSILON, NO_STATE};
pub use compose::{compose_am_lm, ComposeOptions};
pub use fst::{Wfst, WfstBuilder};
pub use semiring::{LogWeight, Semiring, TropicalWeight};
pub use shortest::{shortest_path, ShortestPath};
pub use stats::{FstStats, SizeModel};
pub use symbols::SymbolTable;
