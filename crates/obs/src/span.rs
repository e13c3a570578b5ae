//! Session-lifecycle spans on the serve layer's logical clock.
//!
//! A [`SpanLog`] records each session's life as a tree of open/close
//! intervals — `session → sched-wait / lease / …` — stamped with the
//! caller's `now_ms` (the serve scheduler's logical clock, so tests
//! drive it with arithmetic and threaded servers with wall time).
//! Span ids are handed out by the log itself; callers open and close
//! under whatever lock serializes their clock, which makes id order
//! and close order deterministic for a deterministic event sequence.
//!
//! Closed spans land in a bounded ring (oldest dropped first, drop
//! count kept). Stage and attribute names are `'static` and a span's
//! attributes sit inline in its ring slot, so opening and closing a
//! span allocates nothing once the ring has grown: the serve layer
//! pays a span open/close per lease under its core lock. Spans export
//! as [`SessionSpan`]s, two ways:
//!
//! * [`SpanLog::to_jsonl`] — one [`ObsRecord::SessionSpan`] per line,
//!   round-trippable through the obs parser;
//! * [`SpanLog::to_chrome_trace`] — a Chrome `trace_event` JSON array
//!   of complete (`"ph":"X"`) events, loadable in about://tracing,
//!   with one track (`tid`) per session. Write-only: the obs JSON
//!   parser deliberately has no array support.

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::json::ObsRecord;

/// Default bound on retained closed spans.
pub const DEFAULT_SPAN_CAP: usize = 4096;

/// Most attributes one span may carry (a serve lease span carries six).
pub const MAX_SPAN_ATTRS: usize = 6;

/// One closed span: a named interval in a session's life, with
/// optional numeric attributes (frames decoded, OLT hit rate, …).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpan {
    /// Log-unique id, assigned at open in increasing order (starts
    /// at 1; 0 is reserved for "no parent").
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// Stage tag: `"session"`, `"sched-wait"`, `"lease"`, ….
    pub stage: String,
    /// The session this span belongs to.
    pub session: u64,
    /// Open timestamp on the logical clock.
    pub start_ms: u64,
    /// Close timestamp on the logical clock (`>= start_ms`).
    pub end_ms: u64,
    /// Numeric attributes attached at close, sorted by name so export
    /// and parse round-trip exactly.
    pub attrs: Vec<(String, f64)>,
}

#[derive(Debug)]
struct OpenSpan {
    parent: u64,
    stage: &'static str,
    session: u64,
    start_ms: u64,
}

/// A closed span as the ring keeps it: static names, attributes inline
/// in close order.
#[derive(Debug)]
struct ClosedSpan {
    id: u64,
    open: OpenSpan,
    end_ms: u64,
    attrs: [(&'static str, f64); MAX_SPAN_ATTRS],
    num_attrs: usize,
}

impl ClosedSpan {
    fn to_span(&self) -> SessionSpan {
        let mut attrs: Vec<(String, f64)> = self.attrs[..self.num_attrs]
            .iter()
            .map(|&(k, v)| (k.to_string(), v))
            .collect();
        attrs.sort_by(|a, b| a.0.cmp(&b.0));
        SessionSpan {
            id: self.id,
            parent: self.open.parent,
            stage: self.open.stage.to_string(),
            session: self.open.session,
            start_ms: self.open.start_ms,
            end_ms: self.end_ms,
            attrs,
        }
    }
}

/// Append-only span recorder with a bounded closed-span ring.
#[derive(Debug)]
pub struct SpanLog {
    next_id: u64,
    open: HashMap<u64, OpenSpan>,
    closed: VecDeque<ClosedSpan>,
    cap: usize,
    opened_total: u64,
    closed_total: u64,
    dropped: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAP)
    }
}

impl SpanLog {
    /// A log with the default retained-span bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log retaining at most `cap` most-recent closed spans.
    pub fn with_capacity(cap: usize) -> Self {
        SpanLog {
            next_id: 1,
            open: HashMap::new(),
            closed: VecDeque::new(),
            cap: cap.max(1),
            opened_total: 0,
            closed_total: 0,
            dropped: 0,
        }
    }

    /// Opens a span and returns its id. `parent` is a previously
    /// opened span id, or 0 for a root span.
    pub fn open(&mut self, stage: &'static str, session: u64, parent: u64, now_ms: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.opened_total += 1;
        self.open.insert(
            id,
            OpenSpan {
                parent,
                stage,
                session,
                start_ms: now_ms,
            },
        );
        id
    }

    /// Closes `id` with no attributes. Returns `false` (and records
    /// nothing) if the id is unknown or already closed, so a span can
    /// close at most once.
    pub fn close(&mut self, id: u64, now_ms: u64) -> bool {
        self.close_with(id, now_ms, &[])
    }

    /// Closes `id`, attaching numeric attributes (exported sorted by
    /// name); a `false` return means the id was not open (double
    /// close, or never opened).
    ///
    /// # Panics
    /// When `attrs` holds more than [`MAX_SPAN_ATTRS`] entries.
    pub fn close_with(&mut self, id: u64, now_ms: u64, attrs: &[(&'static str, f64)]) -> bool {
        assert!(
            attrs.len() <= MAX_SPAN_ATTRS,
            "a span carries at most {MAX_SPAN_ATTRS} attributes, got {}",
            attrs.len()
        );
        let Some(open) = self.open.remove(&id) else {
            return false;
        };
        let mut inline = [("", 0.0); MAX_SPAN_ATTRS];
        inline[..attrs.len()].copy_from_slice(attrs);
        if self.closed.len() == self.cap {
            self.closed.pop_front();
            self.dropped += 1;
        }
        self.closed.push_back(ClosedSpan {
            id,
            end_ms: now_ms.max(open.start_ms),
            open,
            attrs: inline,
            num_attrs: attrs.len(),
        });
        self.closed_total += 1;
        true
    }

    /// Spans opened over the log's lifetime.
    pub fn opened_total(&self) -> u64 {
        self.opened_total
    }

    /// Spans closed over the log's lifetime (retained or dropped).
    pub fn closed_total(&self) -> u64 {
        self.closed_total
    }

    /// Spans still open (opened, not yet closed).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Closed spans evicted from the ring by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained closed spans, oldest first (close order).
    pub fn iter_closed(&self) -> impl Iterator<Item = SessionSpan> + '_ {
        self.closed.iter().map(ClosedSpan::to_span)
    }

    /// Retained closed spans as JSONL, one
    /// [`ObsRecord::SessionSpan`] per line, in close order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.iter_closed() {
            out.push_str(&ObsRecord::SessionSpan(s).to_json());
            out.push('\n');
        }
        out
    }

    /// Retained closed spans as a Chrome `trace_event` JSON array:
    /// complete events (`"ph":"X"`), microsecond timestamps (the
    /// logical clock's ms × 1000), one `tid` per session. Load the
    /// output in about://tracing or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.iter_closed().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
                s.stage,
                s.start_ms * 1000,
                (s.end_ms - s.start_ms) * 1000,
                s.session,
                s.id,
                s.parent
            ));
            for (k, v) in &s.attrs {
                out.push_str(&format!(",\"{k}\":{v}"));
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_records_the_interval() {
        let mut log = SpanLog::new();
        let root = log.open("session", 7, 0, 100);
        let child = log.open("lease", 7, root, 110);
        assert!(log.close_with(child, 125, &[("frames", 16.0)]));
        assert!(log.close(root, 130));
        let spans: Vec<SessionSpan> = log.iter_closed().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "lease");
        assert_eq!(spans[0].parent, root);
        assert_eq!(spans[0].start_ms, 110);
        assert_eq!(spans[0].end_ms, 125);
        assert_eq!(spans[0].attrs, vec![("frames".to_string(), 16.0)]);
        assert_eq!(spans[1].stage, "session");
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn every_span_closes_exactly_once() {
        let mut log = SpanLog::new();
        let id = log.open("lease", 1, 0, 0);
        assert!(log.close(id, 5));
        assert!(!log.close(id, 6), "second close must be rejected");
        assert!(!log.close(999, 6), "unknown id must be rejected");
        assert_eq!(log.closed_total(), 1);
        assert_eq!(log.open_count(), 0);
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut log = SpanLog::new();
        let a = log.open("a", 1, 0, 0);
        let b = log.open("b", 1, 0, 0);
        let c = log.open("c", 2, 0, 1);
        assert!(a < b && b < c);
        assert!(a >= 1, "0 is reserved for no-parent");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut log = SpanLog::with_capacity(2);
        for i in 0..5 {
            let id = log.open("x", 1, 0, i);
            log.close(id, i + 1);
        }
        assert_eq!(log.iter_closed().count(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.closed_total(), 5);
        // The ring keeps the most recent closes.
        let kept: Vec<u64> = log.iter_closed().map(|s| s.start_ms).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn end_never_precedes_start() {
        let mut log = SpanLog::new();
        let id = log.open("x", 1, 0, 50);
        // A confused clock (close "before" open) clamps to zero width.
        assert!(log.close(id, 40));
        assert_eq!(log.iter_closed().next().unwrap().end_ms, 50);
    }

    #[test]
    fn jsonl_round_trips_through_the_obs_parser() {
        let mut log = SpanLog::new();
        let root = log.open("session", 3, 0, 10);
        let lease = log.open("lease", 3, root, 12);
        log.close_with(lease, 20, &[("olt_hit_rate", 0.5), ("frames", 16.0)]);
        log.close(root, 22);
        for line in log.to_jsonl().lines() {
            let rec = ObsRecord::parse_line(line).expect("span line parses");
            let ObsRecord::SessionSpan(s) = rec else {
                panic!("expected a session span, got {rec:?}");
            };
            assert_eq!(s.session, 3);
        }
        // Exact round trip, attrs included.
        let first = log.iter_closed().next().unwrap().clone();
        let parsed = ObsRecord::parse_line(&ObsRecord::SessionSpan(first.clone()).to_json());
        assert_eq!(parsed.unwrap(), ObsRecord::SessionSpan(first));
    }

    #[test]
    fn chrome_trace_is_an_array_of_complete_events() {
        let mut log = SpanLog::new();
        let id = log.open("lease", 4, 0, 7);
        log.close_with(id, 9, &[("frames", 8.0)]);
        let t = log.to_chrome_trace();
        assert!(t.starts_with('[') && t.ends_with(']'));
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"ts\":7000"));
        assert!(t.contains("\"dur\":2000"));
        assert!(t.contains("\"tid\":4"));
        assert!(t.contains("\"frames\":8"));
    }
}
