//! Decode-time observability for the UNFOLD reproduction.
//!
//! Three cooperating pieces, all pure `std`:
//!
//! * [`registry`] — named counters, gauges, and log₂-bucketed
//!   histograms with p50/p95/p99 summaries;
//! * [`stage`] — a monotonic stage timer attributing exclusive wall
//!   time to decoder phases (acoustic scoring, arc expansion, LM
//!   lookup, pruning, lattice);
//! * [`frame`] — a bounded per-frame telemetry ring (active tokens,
//!   cost spread, LM traffic, cache hit rates);
//! * [`pool`] — worker-pool occupancy for utterance-parallel batches;
//! * [`loghist`] — a lock-free log₂ histogram workers bump through a
//!   shared `Arc`, with exact-count deterministic merge;
//! * [`span`] — session-lifecycle spans on the serve layer's logical
//!   clock, exportable as JSONL and Chrome `trace_event`;
//! * [`flight`] — a bounded scheduler-event ring that pins a JSONL
//!   dump at the first deadline miss, overload reject, or panic.
//!
//! Everything exports through [`json`] as JSONL (one record per frame
//! or span) and renders to a markdown summary via
//! [`Collector::summary_markdown`]. The decoder side feeds these
//! through its `TraceSink` — observability never touches the search
//! itself, so enabling it cannot perturb results.

pub mod flight;
pub mod frame;
pub mod json;
pub mod loghist;
pub mod phase;
pub mod pool;
pub mod registry;
pub mod span;
pub mod stage;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use frame::{CacheRates, FrameRing, FrameTelemetry};
pub use json::{JsonWriter, Layout, ObsRecord};
pub use loghist::LogHistogram;
pub use phase::{PhaseAccum, PhaseStat};
pub use pool::PoolTelemetry;
pub use registry::{Histogram, MetricsRegistry, Summary};
pub use span::{SessionSpan, SpanLog};
pub use stage::{ns_per_raw_tick, raw_ticks, ticks_to_ns, StageId, StageReport, StageTimer};

/// One-stop container bundling the registry, stage timer, and frame
/// ring for a single decode run.
#[derive(Debug, Default)]
pub struct Collector {
    /// Named counters/gauges/histograms.
    pub registry: MetricsRegistry,
    /// Per-stage exclusive wall time.
    pub stages: StageTimer,
    /// Bounded per-frame telemetry.
    pub frames: FrameRing,
}

impl Collector {
    /// A collector with the default frame-ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector whose frame ring keeps at most `frame_capacity`
    /// most-recent frames.
    pub fn with_frame_capacity(frame_capacity: usize) -> Self {
        Collector {
            registry: MetricsRegistry::new(),
            stages: StageTimer::new(),
            frames: FrameRing::with_capacity(frame_capacity),
        }
    }

    /// Serializes the whole run as JSONL: one `span` record per stage,
    /// one `frame` record per retained frame, and a trailing `run`
    /// record with registry totals.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.stages.report() {
            out.push_str(&ObsRecord::Span(span).to_json());
            out.push('\n');
        }
        for f in self.frames.iter() {
            out.push_str(&ObsRecord::Frame(f.clone()).to_json());
            out.push('\n');
        }
        out.push_str(&ObsRecord::Run(self.registry.totals()).to_json());
        out.push('\n');
        out
    }

    /// Renders the run as a human-readable markdown summary: the stage
    /// breakdown table, frame-latency percentiles, and registry
    /// contents.
    pub fn summary_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("## Stage breakdown\n\n");
        out.push_str(&self.stages.markdown());
        out.push('\n');
        out.push_str("## Metrics\n\n");
        out.push_str(&self.registry.markdown());
        if self.frames.total_seen() > 0 {
            out.push('\n');
            out.push_str("## Frames\n\n");
            out.push_str(&self.frames.markdown());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_jsonl_has_run_record() {
        let mut c = Collector::new();
        c.registry.counter("lm_lookups").add(3);
        let jsonl = c.to_jsonl();
        let records: Vec<ObsRecord> = jsonl
            .lines()
            .map(|l| ObsRecord::parse_line(l).expect("valid record"))
            .collect();
        assert!(matches!(records.last(), Some(ObsRecord::Run(_))));
    }

    #[test]
    fn summary_contains_sections() {
        let c = Collector::new();
        let md = c.summary_markdown();
        assert!(md.contains("## Stage breakdown"));
        assert!(md.contains("## Metrics"));
    }
}
