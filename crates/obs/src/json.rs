//! JSONL export/import for telemetry records.
//!
//! One JSON object per line, discriminated by a `"type"` field:
//!
//! * `frame`  — one [`FrameTelemetry`] per decoded frame;
//! * `span`   — one [`StageReport`] per profiled stage;
//! * `sspan`  — one [`SessionSpan`] per closed session-lifecycle span;
//! * `flight` — one [`FlightEvent`] per flight-recorder entry;
//! * `run`    — flattened registry totals for the whole run.
//!
//! The writer ([`JsonWriter`], also the serve load generator's report
//! writer) and the parser are hand-rolled over `std` (the workspace has
//! no serde). Floats print with Rust's shortest-round-trip `Display`,
//! so `parse_line(to_json(r)) == r` exactly; non-finite floats encode
//! as the strings `"inf"`, `"-inf"`, `"nan"` since JSON has no literal
//! for them.

use std::collections::BTreeMap;

use crate::flight::{FlightEvent, FlightKind};
use crate::frame::{CacheRates, FrameTelemetry};
use crate::span::SessionSpan;
use crate::stage::StageReport;

/// A single telemetry record (one JSONL line).
#[derive(Debug, Clone, PartialEq)]
pub enum ObsRecord {
    /// Per-frame telemetry.
    Frame(FrameTelemetry),
    /// Per-stage exclusive time.
    Span(StageReport),
    /// One closed session-lifecycle span.
    SessionSpan(SessionSpan),
    /// One flight-recorder event.
    Flight(FlightEvent),
    /// Run-level registry totals as `(name, value)` pairs.
    Run(Vec<(String, f64)>),
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        // `{}` on f64 is the shortest string that round-trips.
        out.push_str(&format!("{v}"));
    }
}

/// How a [`JsonWriter`] lays out an object's members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"k":v,"k":v}`: the JSONL records.
    Compact,
    /// `{"k": v, "k": v}`: one line, spaced.
    Inline,
    /// One `"k": v` member a line, indented two spaces a level.
    Block,
}

/// The one JSON object writer: the JSONL records and the reports built
/// on this crate (the serve load generator's) both write through it.
/// Keys are escaped, floats print shortest-round-trip, and members come
/// out in call order.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    layout: Layout,
    depth: usize,
    first: bool,
}

impl JsonWriter {
    /// An empty top-level object laid out as `layout`.
    pub fn new(layout: Layout) -> Self {
        JsonWriter {
            out: String::from("{"),
            layout,
            depth: 0,
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        match self.layout {
            Layout::Compact => {}
            Layout::Inline if self.first => {}
            Layout::Inline => self.out.push(' '),
            Layout::Block => {
                self.out.push('\n');
                self.indent(self.depth + 1);
            }
        }
        self.first = false;
        push_str_value(&mut self.out, k);
        self.out.push(':');
        if self.layout != Layout::Compact {
            self.out.push(' ');
        }
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// An unsigned integer member.
    pub fn uint(&mut self, k: &str, v: u64) {
        self.key(k);
        self.out.push_str(&v.to_string());
    }

    /// A float member; a non-finite value is the string `"inf"`,
    /// `"-inf"` or `"nan"`, so [`ObsRecord::parse_line`] reads it back.
    pub fn float(&mut self, k: &str, v: f64) {
        self.key(k);
        push_f64(&mut self.out, v);
    }

    /// A float member; a non-finite value is `null`.
    pub fn float_or_null(&mut self, k: &str, v: f64) {
        if v.is_finite() {
            self.float(k, v);
        } else {
            self.key(k);
            self.out.push_str("null");
        }
    }

    /// A boolean member.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// A string member.
    pub fn string(&mut self, k: &str, v: &str) {
        self.key(k);
        push_str_value(&mut self.out, v);
    }

    /// A nested object member laid out as `layout`, whose members
    /// `fill` writes.
    pub fn object(&mut self, k: &str, layout: Layout, fill: impl FnOnce(&mut JsonWriter)) {
        self.key(k);
        let mut inner = JsonWriter {
            out: std::mem::take(&mut self.out),
            layout,
            depth: self.depth + 1,
            first: true,
        };
        inner.out.push('{');
        fill(&mut inner);
        self.out = inner.finish();
    }

    /// Closes the object and returns its text (no trailing newline).
    pub fn finish(mut self) -> String {
        if self.layout == Layout::Block && !self.first {
            self.out.push('\n');
            self.indent(self.depth);
        }
        self.out.push('}');
        self.out
    }
}

/// A compact record writer with its `"type"` discriminator written.
fn record(kind: &str) -> JsonWriter {
    let mut w = JsonWriter::new(Layout::Compact);
    w.string("type", kind);
    w
}

impl ObsRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            ObsRecord::Frame(f) => {
                let mut w = record("frame");
                w.uint("seq", f.seq);
                w.uint("frame", f.frame as u64);
                w.uint("active_in", f.active_in as u64);
                w.uint("active_out", f.active_out as u64);
                w.float("best_cost", f64::from(f.best_cost));
                w.float("worst_cost", f64::from(f.worst_cost));
                w.uint("lm_lookups", f.lm_lookups);
                w.uint("backoff_hops", f.backoff_hops);
                w.uint("preemptive_prunes", f.preemptive_prunes);
                w.uint("olt_probes", f.olt_probes);
                w.uint("olt_hits", f.olt_hits);
                w.uint("wall_ns", f.wall_ns);
                if let Some(c) = f.cache {
                    w.float("cache_state", c.state);
                    w.float("cache_am_arc", c.am_arc);
                    w.float("cache_lm_arc", c.lm_arc);
                    w.float("cache_token", c.token);
                    w.float("cache_olt", c.olt);
                }
                w.finish()
            }
            ObsRecord::Span(s) => {
                let mut w = record("span");
                w.string("stage", &s.name);
                w.uint("count", s.count);
                w.uint("self_ns", s.self_nanos);
                w.finish()
            }
            ObsRecord::SessionSpan(s) => {
                let mut w = record("sspan");
                w.uint("id", s.id);
                w.uint("parent", s.parent);
                w.string("stage", &s.stage);
                w.uint("session", s.session);
                w.uint("start_ms", s.start_ms);
                w.uint("end_ms", s.end_ms);
                w.object("attrs", Layout::Compact, |o| {
                    for (name, v) in &s.attrs {
                        o.float(name, *v);
                    }
                });
                w.finish()
            }
            ObsRecord::Flight(e) => {
                let mut w = record("flight");
                w.uint("seq", e.seq);
                w.uint("now_ms", e.now_ms);
                w.uint("session", e.session);
                w.string("event", e.kind.tag());
                w.float("slack_ms", e.slack_ms);
                w.float("value", e.value);
                w.finish()
            }
            ObsRecord::Run(metrics) => {
                let mut w = record("run");
                w.object("metrics", Layout::Compact, |o| {
                    for (name, v) in metrics {
                        o.float(name, *v);
                    }
                });
                w.finish()
            }
        }
    }

    /// Parses one JSONL line back into a record.
    pub fn parse_line(line: &str) -> Result<ObsRecord, String> {
        let value = Parser::new(line).parse_document()?;
        let obj = value.as_object().ok_or("top level is not an object")?;
        let kind = obj
            .get("type")
            .and_then(Value::as_str)
            .ok_or("missing \"type\" field")?;
        match kind {
            "frame" => {
                let cache = if obj.contains_key("cache_state") {
                    Some(CacheRates {
                        state: get_f64(obj, "cache_state")?,
                        am_arc: get_f64(obj, "cache_am_arc")?,
                        lm_arc: get_f64(obj, "cache_lm_arc")?,
                        token: get_f64(obj, "cache_token")?,
                        olt: get_f64(obj, "cache_olt")?,
                    })
                } else {
                    None
                };
                Ok(ObsRecord::Frame(FrameTelemetry {
                    seq: get_u64(obj, "seq")?,
                    frame: get_u64(obj, "frame")? as usize,
                    active_in: get_u64(obj, "active_in")? as usize,
                    active_out: get_u64(obj, "active_out")? as usize,
                    best_cost: get_f64(obj, "best_cost")? as f32,
                    worst_cost: get_f64(obj, "worst_cost")? as f32,
                    lm_lookups: get_u64(obj, "lm_lookups")?,
                    backoff_hops: get_u64(obj, "backoff_hops")?,
                    preemptive_prunes: get_u64(obj, "preemptive_prunes")?,
                    // Absent in JSONL written before the software OLT
                    // existed; default to 0 so old logs still parse.
                    olt_probes: get_u64_or(obj, "olt_probes", 0)?,
                    olt_hits: get_u64_or(obj, "olt_hits", 0)?,
                    wall_ns: get_u64(obj, "wall_ns")?,
                    cache,
                }))
            }
            "span" => Ok(ObsRecord::Span(StageReport {
                name: obj
                    .get("stage")
                    .and_then(Value::as_str)
                    .ok_or("span missing \"stage\"")?
                    .to_string(),
                count: get_u64(obj, "count")?,
                self_nanos: get_u64(obj, "self_ns")?,
            })),
            "sspan" => {
                let attrs_obj = obj
                    .get("attrs")
                    .and_then(Value::as_object)
                    .ok_or("sspan missing \"attrs\" object")?;
                let mut attrs = Vec::with_capacity(attrs_obj.len());
                for (name, v) in attrs_obj {
                    attrs.push((
                        name.clone(),
                        v.as_f64()
                            .ok_or_else(|| format!("attr {name:?} is not numeric"))?,
                    ));
                }
                Ok(ObsRecord::SessionSpan(SessionSpan {
                    id: get_u64(obj, "id")?,
                    parent: get_u64(obj, "parent")?,
                    stage: obj
                        .get("stage")
                        .and_then(Value::as_str)
                        .ok_or("sspan missing \"stage\"")?
                        .to_string(),
                    session: get_u64(obj, "session")?,
                    start_ms: get_u64(obj, "start_ms")?,
                    end_ms: get_u64(obj, "end_ms")?,
                    attrs,
                }))
            }
            "flight" => {
                let tag = obj
                    .get("event")
                    .and_then(Value::as_str)
                    .ok_or("flight missing \"event\"")?;
                Ok(ObsRecord::Flight(FlightEvent {
                    seq: get_u64(obj, "seq")?,
                    now_ms: get_u64(obj, "now_ms")?,
                    session: get_u64(obj, "session")?,
                    kind: FlightKind::from_tag(tag)
                        .ok_or_else(|| format!("unknown flight event {tag:?}"))?,
                    slack_ms: get_f64(obj, "slack_ms")?,
                    value: get_f64(obj, "value")?,
                }))
            }
            "run" => {
                let metrics = obj
                    .get("metrics")
                    .and_then(Value::as_object)
                    .ok_or("run missing \"metrics\" object")?;
                let mut pairs = Vec::with_capacity(metrics.len());
                for (name, v) in metrics {
                    pairs.push((
                        name.clone(),
                        v.as_f64()
                            .ok_or_else(|| format!("metric {name:?} is not numeric"))?,
                    ));
                }
                Ok(ObsRecord::Run(pairs))
            }
            other => Err(format!("unknown record type {other:?}")),
        }
    }
}

fn get_f64(obj: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    let v = get_f64(obj, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("field {key:?} is not a non-negative integer: {v}"));
    }
    Ok(v as u64)
}

fn get_u64_or(obj: &BTreeMap<String, Value>, key: &str, default: u64) -> Result<u64, String> {
    if obj.contains_key(key) {
        get_u64(obj, key)
    } else {
        Ok(default)
    }
}

// ---------------------------------------------------------------------
// Minimal JSON parser (objects, strings, numbers, null; no arrays —
// the telemetry schema never emits them).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Object(BTreeMap<String, Value>),
    String(String),
    Number(f64),
    Null,
}

impl Value {
    fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: numbers directly; the sentinel strings map back
    /// to the non-finite floats they encoded.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::String(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Value, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Value::Null)
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'"'
                && self.bytes[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid utf8 in string: {e}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::sample_frame;

    #[test]
    fn frame_round_trips_exactly() {
        let mut f = sample_frame(7);
        f.best_cost = 1.100_000_1; // not representable as a short decimal
        f.worst_cost = f32::INFINITY;
        f.cache = Some(CacheRates {
            state: 0.875,
            am_arc: 1.0,
            lm_arc: 0.1,
            token: 0.0,
            olt: 0.5,
        });
        let rec = ObsRecord::Frame(f.clone());
        let parsed = ObsRecord::parse_line(&rec.to_json()).expect("parses");
        assert_eq!(parsed, ObsRecord::Frame(f));
    }

    #[test]
    fn frame_without_cache_round_trips() {
        let rec = ObsRecord::Frame(sample_frame(0));
        let parsed = ObsRecord::parse_line(&rec.to_json()).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn span_round_trips() {
        let rec = ObsRecord::Span(StageReport {
            name: "arc_expansion".to_string(),
            count: 12,
            self_nanos: 987_654_321,
        });
        assert_eq!(ObsRecord::parse_line(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn run_round_trips_with_odd_names() {
        let rec = ObsRecord::Run(vec![
            ("lm_lookups".to_string(), 42.0),
            ("frame_ns.p95".to_string(), 1.5e6),
            ("weird \"name\"\n".to_string(), -0.125),
        ]);
        match ObsRecord::parse_line(&rec.to_json()).unwrap() {
            ObsRecord::Run(mut pairs) => {
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                let mut want = match rec {
                    ObsRecord::Run(p) => p,
                    _ => unreachable!(),
                };
                want.sort_by(|a, b| a.0.cmp(&b.0));
                assert_eq!(pairs, want);
            }
            other => panic!("wrong record kind: {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_survive() {
        let mut f = sample_frame(1);
        f.best_cost = f32::NEG_INFINITY;
        let parsed = ObsRecord::parse_line(&ObsRecord::Frame(f).to_json()).unwrap();
        match parsed {
            ObsRecord::Frame(f) => assert_eq!(f.best_cost, f32::NEG_INFINITY),
            other => panic!("wrong record kind: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(ObsRecord::parse_line("").is_err());
        assert!(ObsRecord::parse_line("{\"type\":\"frame\"}").is_err());
        assert!(ObsRecord::parse_line("{\"no_type\":1}").is_err());
        assert!(ObsRecord::parse_line("{\"type\":\"mystery\"}").is_err());
        assert!(ObsRecord::parse_line("{\"type\":\"frame\",").is_err());
    }
}
