//! The harness's own tracer: one span per call into a layer, kept in
//! memory and written out when the run ends.
//!
//! Spans are recorded around the calls in `api.rs`, never inside the
//! program. The replay that fills a tracer is single-threaded, so spans
//! nest strictly and a span's children never overlap.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the enclosing span, 0 at the top level.
    pub parent: u32,
    /// The session (or utterance) this call served.
    pub session: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing: the untraced replay and every
    /// end-to-end run go through the same adapter calls with this one.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    fn enter(&mut self, name: &'static str, session: u32) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| i + 1);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            session,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, session: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, session);
        let r = f();
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    /// Any I/O error, including the final flush.
    pub fn write_jsonl(&self, path: &Path, extra_lines: &[String]) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"kind\":\"span\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.session
            )?;
        }
        for line in extra_lines {
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

/// Per span: its duration minus the time its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Calls and summed self time per span name.
#[derive(Default)]
pub struct Busy(BTreeMap<&'static str, (u64, u64)>);

impl Busy {
    pub fn of(spans: &[Span]) -> Busy {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_ns(spans)) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        Busy(by_name)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |e| e.0)
    }

    pub fn seconds(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1 as f64 / 1e9)
    }

    /// Self time summed over every span: disjoint by construction, so
    /// this is the wall time the replay spent inside the program.
    pub fn total_seconds(&self) -> f64 {
        self.0.values().map(|e| e.1 as f64 / 1e9).sum()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // a [0,100) holds b [10,40) and c [50,90); c holds d [60,70).
        let spans = vec![
            span("a", 0, 100, 0),
            span("b", 10, 40, 1),
            span("c", 50, 90, 1),
            span("d", 60, 70, 3),
            span("a", 200, 230, 0),
        ];
        assert_eq!(self_ns(&spans), vec![30, 30, 30, 10, 30]);
        let busy = Busy::of(&spans);
        assert_eq!(busy.calls("a"), 2);
        assert_eq!(busy.seconds("a"), 60e-9);
        assert_eq!(busy.seconds("c"), 30e-9);
        assert_eq!(busy.calls("missing"), 0);
        // Self times partition the covered wall time: 100 + 30.
        assert!((busy.total_seconds() - 130e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_by_call_order_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.enter("outer", 7);
        t.enter("inner", 7);
        t.exit();
        t.exit();
        t.enter("next", 8);
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 0));
        assert_eq!(s[2].session, 8);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        off.enter("x", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
