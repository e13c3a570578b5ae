#![warn(missing_docs)]

//! Accelerator model for the UNFOLD reproduction.
//!
//! The paper evaluates UNFOLD with a cycle-accurate simulator plus
//! Design Compiler / CACTI / Micron power models (§4). This crate is the
//! equivalent substrate, rebuilt as a *cycle-approximate, event-driven*
//! model that consumes the decoder's memory-access trace online (it
//! implements [`unfold_decoder::TraceSink`]):
//!
//! * [`cache`] — set-associative LRU caches (State / AM-Arc / LM-Arc /
//!   Token, Table 3),
//! * [`olt`] — the direct-mapped Offset Lookup Table (§3.1, Figure 7),
//! * [`hashtable`] — the token hash tables with overflow modeling,
//! * [`dram`] — LPDDR4-style burst traffic, latency, and energy,
//! * [`energy`] — CACTI-flavored per-access energies, leakage, and area
//!   (constants documented inline; see DESIGN.md for the calibration
//!   argument),
//! * [`accel`] — the pipeline model tying it all together and producing
//!   a [`report::SimReport`],
//! * [`gpu`] — an analytic Tegra X1 model for the GPU baselines and the
//!   GMM/DNN/RNN scoring stage (Figures 1, 9, 12, 13).
//!
//! # Example
//!
//! ```
//! use unfold_sim::{Accelerator, AcceleratorConfig};
//! use unfold_decoder::TraceSink;
//!
//! let mut accel = Accelerator::new(AcceleratorConfig::unfold());
//! // Normally the decoder drives the sink; here we poke it directly.
//! accel.frame_start(0, 10);
//! accel.state_fetch(0x40);
//! accel.am_arc_fetch(0x4000_0000, 16);
//! let report = accel.finish(0.01);
//! assert!(report.cycles > 0);
//! assert!(report.total_energy_mj() > 0.0);
//! ```

pub mod accel;
pub mod cache;
pub mod dram;
pub mod energy;
pub mod gpu;
pub mod hashtable;
pub mod olt;
pub mod report;

pub use accel::{Accelerator, FrameCacheSnapshot};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use dram::DramModel;
pub use energy::EnergyModel;
pub use gpu::{batch_pipeline, BatchPipeline, GpuModel, ScoringKind};
pub use hashtable::TokenHashTable;
pub use olt::OffsetLookupTable;
pub use report::{AcceleratorConfig, ComponentEnergy, SimReport};
