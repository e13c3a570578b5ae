//! Flight recorder: a bounded ring of recent scheduler events that
//! freezes a JSONL dump at the first sign of trouble.
//!
//! The serve scheduler feeds every admission, degradation, lease
//! grant (with deadline slack at dispatch), deadline miss, eviction,
//! reject, and worker panic into a [`FlightRecorder`]. The ring keeps
//! only the most recent events, so steady state costs a few hundred
//! small structs; when the *first* anomaly lands — a deadline miss,
//! an `Overloaded` reject, or a worker panic — the recorder snapshots
//! the whole ring to JSONL and pins it, so the post-mortem shows what
//! the scheduler was doing in the moments *before* the failure, not
//! just the failure itself. A snapshot can also be taken on demand at
//! any time (the wire `Dump` request).

use std::collections::VecDeque;

use crate::json::ObsRecord;

/// Default bound on retained events.
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// What happened. The discriminant doubles as the JSONL `event` tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Session admitted; `value` = degradation-ladder level.
    Admit,
    /// Open refused: session table full.
    RejectCapacity,
    /// Frame or open refused: backlog over the overload bound.
    /// **Trigger**: freezes the dump.
    RejectOverload,
    /// Lease granted to a worker; `slack_ms` = deadline − now at
    /// dispatch, `value` = frames in the lease.
    Lease,
    /// Lease completed after its deadline; `slack_ms` = deadline − now
    /// at completion (negative). **Trigger**: freezes the dump.
    DeadlineMiss,
    /// Idle session evicted.
    Evict,
    /// Final result produced; `value` = total frames decoded.
    Final,
    /// A worker panicked mid-lease. **Trigger**: freezes the dump.
    WorkerPanic,
}

impl FlightKind {
    /// Stable string tag used in the JSONL encoding.
    pub fn tag(self) -> &'static str {
        match self {
            FlightKind::Admit => "admit",
            FlightKind::RejectCapacity => "reject_capacity",
            FlightKind::RejectOverload => "reject_overload",
            FlightKind::Lease => "lease",
            FlightKind::DeadlineMiss => "deadline_miss",
            FlightKind::Evict => "evict",
            FlightKind::Final => "final",
            FlightKind::WorkerPanic => "worker_panic",
        }
    }

    /// Parses a tag back (the JSONL import path).
    pub fn from_tag(tag: &str) -> Option<FlightKind> {
        Some(match tag {
            "admit" => FlightKind::Admit,
            "reject_capacity" => FlightKind::RejectCapacity,
            "reject_overload" => FlightKind::RejectOverload,
            "lease" => FlightKind::Lease,
            "deadline_miss" => FlightKind::DeadlineMiss,
            "evict" => FlightKind::Evict,
            "final" => FlightKind::Final,
            "worker_panic" => FlightKind::WorkerPanic,
            _ => return None,
        })
    }

    /// Whether this event freezes the auto-dump.
    fn is_trigger(self) -> bool {
        matches!(
            self,
            FlightKind::RejectOverload | FlightKind::DeadlineMiss | FlightKind::WorkerPanic
        )
    }
}

/// One recorded scheduler event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Recorder-lifetime sequence number (never resets, so gaps in a
    /// dump reveal how much the ring dropped).
    pub seq: u64,
    /// Logical-clock timestamp.
    pub now_ms: u64,
    /// Session the event concerns (0 when none applies).
    pub session: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Deadline slack in ms where meaningful (negative = late);
    /// 0 otherwise.
    pub slack_ms: f64,
    /// Event-specific magnitude (degrade level, lease frames, …).
    pub value: f64,
}

/// Bounded event ring with first-anomaly auto-freeze.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    cap: usize,
    seq: u64,
    frozen: Option<String>,
    frozen_reason: Option<&'static str>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// A recorder with the default ring bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder retaining at most `cap` most-recent events.
    pub fn with_capacity(cap: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::new(),
            cap: cap.max(1),
            seq: 0,
            frozen: None,
            frozen_reason: None,
        }
    }

    /// Records one event. If it is the first trigger (deadline miss,
    /// overload reject, worker panic), the ring — ending with this
    /// event — is snapshotted and pinned as the auto-dump.
    pub fn record(
        &mut self,
        kind: FlightKind,
        now_ms: u64,
        session: u64,
        slack_ms: f64,
        value: f64,
    ) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(FlightEvent {
            seq: self.seq,
            now_ms,
            session,
            kind,
            slack_ms,
            value,
        });
        self.seq += 1;
        if kind.is_trigger() && self.frozen.is_none() {
            self.frozen = Some(self.snapshot_jsonl());
            self.frozen_reason = Some(kind.tag());
        }
    }

    /// Events recorded over the recorder's lifetime.
    pub fn recorded_total(&self) -> u64 {
        self.seq
    }

    /// The current ring contents as JSONL, oldest event first.
    pub fn snapshot_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.ring {
            out.push_str(&ObsRecord::Flight(e.clone()).to_json());
            out.push('\n');
        }
        out
    }

    /// The dump pinned at the first trigger, if any fired.
    pub fn frozen_dump(&self) -> Option<&str> {
        self.frozen.as_deref()
    }

    /// The tag of the trigger that froze the dump.
    pub fn frozen_reason(&self) -> Option<&'static str> {
        self.frozen_reason
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_with_monotonic_seq() {
        let mut fr = FlightRecorder::with_capacity(3);
        for i in 0..10u64 {
            fr.record(FlightKind::Admit, i, i, 0.0, 0.0);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.recorded_total(), 10);
        let seqs: Vec<u64> = fr
            .snapshot_jsonl()
            .lines()
            .map(|l| match ObsRecord::parse_line(l).unwrap() {
                ObsRecord::Flight(e) => e.seq,
                other => panic!("expected flight, got {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn first_deadline_miss_freezes_the_dump_ending_with_the_miss() {
        let mut fr = FlightRecorder::new();
        fr.record(FlightKind::Admit, 0, 1, 0.0, 0.0);
        fr.record(FlightKind::Lease, 5, 1, 25.0, 16.0);
        fr.record(FlightKind::DeadlineMiss, 40, 1, -10.0, 16.0);
        // Later events do not overwrite the pinned dump.
        fr.record(FlightKind::DeadlineMiss, 80, 2, -50.0, 8.0);
        let dump = fr.frozen_dump().expect("auto-dump pinned");
        assert_eq!(fr.frozen_reason(), Some("deadline_miss"));
        let events: Vec<FlightEvent> = dump
            .lines()
            .map(|l| match ObsRecord::parse_line(l).unwrap() {
                ObsRecord::Flight(e) => e,
                other => panic!("expected flight, got {other:?}"),
            })
            .collect();
        assert_eq!(events.len(), 3);
        let last = events.last().unwrap();
        assert_eq!(last.kind, FlightKind::DeadlineMiss);
        assert!(
            last.slack_ms < 0.0,
            "missed lease must carry negative slack"
        );
        assert_eq!(last.session, 1);
    }

    #[test]
    fn overload_reject_and_panic_also_trigger() {
        for kind in [FlightKind::RejectOverload, FlightKind::WorkerPanic] {
            let mut fr = FlightRecorder::new();
            fr.record(FlightKind::Admit, 0, 1, 0.0, 0.0);
            assert!(fr.frozen_dump().is_none());
            fr.record(kind, 1, 1, 0.0, 0.0);
            assert!(fr.frozen_dump().is_some());
            assert_eq!(fr.frozen_reason(), Some(kind.tag()));
        }
        // Capacity rejects and evictions are expected churn, not
        // anomalies.
        let mut fr = FlightRecorder::new();
        fr.record(FlightKind::RejectCapacity, 0, 1, 0.0, 0.0);
        fr.record(FlightKind::Evict, 1, 1, 0.0, 0.0);
        assert!(fr.frozen_dump().is_none());
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let mut fr = FlightRecorder::new();
        fr.record(FlightKind::Lease, 12, 3, 7.5, 16.0);
        let line = fr.snapshot_jsonl();
        let parsed = ObsRecord::parse_line(line.trim()).unwrap();
        let ObsRecord::Flight(e) = parsed else {
            panic!("expected flight");
        };
        assert_eq!(e.kind, FlightKind::Lease);
        assert_eq!(e.slack_ms, 7.5);
        assert_eq!(e.value, 16.0);
        assert_eq!(e.session, 3);
        assert_eq!(e.now_ms, 12);
    }
}
