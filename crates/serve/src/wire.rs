//! Length-prefixed wire protocol for the TCP front end.
//!
//! Every message is `[u32 length (LE)] [u8 tag] [payload]`, where
//! `length` counts the tag plus payload. Integers and floats are
//! little-endian. The protocol is deliberately dumb — no negotiation,
//! no compression — because its job is to exercise the serving layer,
//! not to be a product API.
//!
//! One session per connection: `Open` binds the connection to a fresh
//! session; each `FramesV2` batch is answered with a `Partial` (the
//! stable prefix so far); `Finish` is answered with `Final`. `Stats`
//! and `Shutdown` work on any connection.

use std::io::{self, Read, Write};

use unfold_decoder::FrameInput;

use crate::RejectReason;

/// Hard bound on one message's payload (tag + body), to fail fast on
/// corrupt length prefixes instead of attempting a huge allocation.
pub const MAX_MESSAGE: usize = 64 << 20;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Open a session on this connection, optionally naming the LM to
    /// decode against and a registered biasing model to personalize it
    /// with. A bare `Open` payload (no names — what older clients
    /// send) selects the server's default model, unbiased.
    Open {
        /// Registered LM name; `None` = default.
        lm: Option<String>,
        /// Registered biasing-model name; `None` = unbiased. On the
        /// wire the bias name trails the LM name, with an empty LM
        /// string standing in for "default" — older frames simply
        /// stop earlier.
        bias: Option<String>,
    },
    /// A versioned batch of [`FrameInput`]s (all the same kind and
    /// width): precomputed score rows *or* raw feature vectors for the
    /// server's acoustic scorer. Wire layout:
    /// `[u8 version=1] [u8 kind (0 = scores, 1 = features)]
    /// [u32 n] [u32 width] [n × width f32]`. Unknown versions are
    /// rejected loudly rather than misparsed, so the payload can grow.
    FramesV2(Vec<FrameInput>),
    /// No more audio; finalize and return the transcript.
    Finish,
    /// Request the server's metrics record.
    Stats,
    /// Ask the whole server to shut down.
    Shutdown,
    /// Request the flight-recorder dump and closed session spans.
    Dump,
    /// Register (or hot-swap) a biasing model under a name. Phrases
    /// are `(word ids, bonus)` pairs; the server builds the acceptor.
    AddBias {
        /// Registry name.
        name: String,
        /// The phrase list.
        phrases: Vec<(Vec<u32>, f32)>,
    },
    /// Remove a biasing model from the registry (sessions already
    /// pinned to it are untouched).
    RetireBias {
        /// Registry name.
        name: String,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Session admitted.
    Opened {
        /// Its id (diagnostic — the connection itself addresses it).
        session: u64,
    },
    /// Admission refused.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Stable partial transcript after a `FramesV2` batch.
    Partial {
        /// Words every live hypothesis agrees on so far.
        words: Vec<u32>,
    },
    /// Final transcript after `Finish`.
    Final {
        /// Best-path word sequence.
        words: Vec<u32>,
        /// Best complete-hypothesis cost.
        cost: f32,
        /// Frames decoded.
        frames: u64,
    },
    /// Protocol or session error (connection stays usable).
    Error {
        /// Human-readable cause.
        msg: String,
    },
    /// Metrics record (`unfold-obs` run JSONL).
    Stats {
        /// The JSONL text.
        jsonl: String,
    },
    /// Flight-recorder events plus closed session spans.
    Dump {
        /// Flight events as JSONL (`flight` records) — the pinned
        /// incident snapshot if one froze, else a live ring snapshot.
        flight: String,
        /// Closed session spans as JSONL (`sspan` records).
        spans: String,
    },
    /// Generic success acknowledgement (`AddBias` / `RetireBias`).
    Ack,
}

const T_OPEN: u8 = 0x01;
// 0x02 was the unversioned score-row `Frames` message; it is retired
// and decodes as an unknown tag.
const T_FINISH: u8 = 0x03;
const T_STATS: u8 = 0x04;
const T_SHUTDOWN: u8 = 0x05;
const T_DUMP: u8 = 0x06;
const T_ADD_BIAS: u8 = 0x07;
const T_RETIRE_BIAS: u8 = 0x08;
const T_FRAMES_V2: u8 = 0x09;

/// Current `FramesV2` payload version.
const FRAMES_V2_VERSION: u8 = 1;
const KIND_SCORES: u8 = 0;
const KIND_FEATURES: u8 = 1;

const T_OPENED: u8 = 0x81;
const T_REJECTED: u8 = 0x82;
const T_PARTIAL: u8 = 0x83;
const T_FINAL: u8 = 0x84;
const T_ERROR: u8 = 0x85;
const T_STATS_REPLY: u8 = 0x86;
const T_DUMP_REPLY: u8 = 0x87;
const T_ACK: u8 = 0x88;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wire: {what}"))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated message"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A declared count of `n` items of at least `min_bytes` each, or
    /// `InvalidData` when the bytes left cannot hold them. Every count
    /// goes through here (or, for frame rows, through the same bound in
    /// [`Cursor::rows`]) before it sizes an allocation, so what a
    /// message makes the decoder allocate is proportional to the bytes
    /// it carries. The widest ratio is a batch of one-wide frame rows:
    /// each 4-byte cell becomes one `FrameInput` plus a 4-byte heap row,
    /// about 9× the message, and a message is at most [`MAX_MESSAGE`].
    fn count(&mut self, min_bytes: usize, what: &str) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_bytes)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(bad(&format!("{what}: {n} declared, truncated message")));
        }
        Ok(n)
    }

    fn words(&mut self) -> io::Result<Vec<u32>> {
        let n = self.count(4, "word list")?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// `[u32 n] [u32 width] [n × width f32]`, each row through `make`.
    /// A zero width is refused unless the batch is empty: zero-width
    /// rows carry no bytes, so they could not be bounded by the
    /// message's length.
    fn rows<T>(&mut self, make: impl Fn(Vec<f32>) -> T) -> io::Result<Vec<T>> {
        let n = self.u32()? as usize;
        let width = self.u32()? as usize;
        if width == 0 && n > 0 {
            return Err(bad("zero-width frame batch"));
        }
        if n.checked_mul(width)
            .and_then(|cells| cells.checked_mul(4))
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(bad("frame batch: truncated message"));
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(self.f32()?);
            }
            rows.push(make(row));
        }
        Ok(rows)
    }

    fn string(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid utf-8"))
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes"))
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_words(buf: &mut Vec<u8>, words: &[u32]) {
    put_u32(buf, words.len() as u32);
    for &w in words {
        put_u32(buf, w);
    }
}

/// Inverse of `Cursor::rows`.
///
/// # Panics
/// Panics on a ragged batch.
fn put_rows<'a>(buf: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = &'a [f32]>) {
    let mut rows = rows.peekable();
    let width = rows.peek().map_or(0, |r| r.len());
    put_u32(buf, rows.len() as u32);
    put_u32(buf, width as u32);
    for row in rows {
        assert_eq!(row.len(), width, "ragged frame batch");
        for &v in row {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

impl ClientMsg {
    /// Serializes tag + payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ClientMsg::Open { lm, bias } => {
                buf.push(T_OPEN);
                match (lm, bias) {
                    (None, None) => {} // legacy bare frame
                    (Some(name), None) => put_string(&mut buf, name),
                    // A bias name needs the LM slot filled; "" stands
                    // in for the default model.
                    (lm, Some(b)) => {
                        put_string(&mut buf, lm.as_deref().unwrap_or(""));
                        put_string(&mut buf, b);
                    }
                }
            }
            ClientMsg::FramesV2(frames) => {
                let kind_of = |f: &FrameInput| match f {
                    FrameInput::Scores(_) => KIND_SCORES,
                    FrameInput::Features(_) => KIND_FEATURES,
                };
                let kind = frames.first().map_or(KIND_SCORES, kind_of);
                buf.extend_from_slice(&[T_FRAMES_V2, FRAMES_V2_VERSION, kind]);
                put_rows(
                    &mut buf,
                    frames.iter().map(|f| {
                        assert_eq!(kind_of(f), kind, "mixed-kind frame batch");
                        f.values()
                    }),
                );
            }
            ClientMsg::Finish => buf.push(T_FINISH),
            ClientMsg::Stats => buf.push(T_STATS),
            ClientMsg::Shutdown => buf.push(T_SHUTDOWN),
            ClientMsg::Dump => buf.push(T_DUMP),
            ClientMsg::AddBias { name, phrases } => {
                buf.push(T_ADD_BIAS);
                put_string(&mut buf, name);
                put_u32(&mut buf, phrases.len() as u32);
                for (words, bonus) in phrases {
                    put_words(&mut buf, words);
                    buf.extend_from_slice(&bonus.to_le_bytes());
                }
            }
            ClientMsg::RetireBias { name } => {
                buf.push(T_RETIRE_BIAS);
                put_string(&mut buf, name);
            }
        }
        buf
    }

    /// Parses tag + payload.
    ///
    /// # Errors
    /// `InvalidData` on unknown tags or malformed payloads.
    pub fn decode(buf: &[u8]) -> io::Result<ClientMsg> {
        let mut c = Cursor::new(buf);
        let msg = match c.u8()? {
            T_OPEN => {
                if c.pos == buf.len() {
                    // Legacy bare Open: default model, unbiased.
                    ClientMsg::Open {
                        lm: None,
                        bias: None,
                    }
                } else {
                    let lm = c.string()?;
                    let bias = if c.pos == buf.len() {
                        None
                    } else {
                        Some(c.string()?)
                    };
                    // An empty LM slot only appears as the placeholder
                    // in front of a bias name.
                    let lm = if lm.is_empty() { None } else { Some(lm) };
                    ClientMsg::Open { lm, bias }
                }
            }
            T_FRAMES_V2 => {
                let version = c.u8()?;
                if version != FRAMES_V2_VERSION {
                    return Err(bad(&format!("unsupported frames-v2 version {version}")));
                }
                let make = match c.u8()? {
                    KIND_SCORES => FrameInput::Scores,
                    KIND_FEATURES => FrameInput::Features,
                    k => return Err(bad(&format!("unknown frame kind {k}"))),
                };
                ClientMsg::FramesV2(c.rows(make)?)
            }
            T_FINISH => ClientMsg::Finish,
            T_STATS => ClientMsg::Stats,
            T_SHUTDOWN => ClientMsg::Shutdown,
            T_DUMP => ClientMsg::Dump,
            T_ADD_BIAS => {
                let name = c.string()?;
                // A phrase is at least its word count and its bonus.
                let n = c.count(8, "phrase list")?;
                let mut phrases = Vec::with_capacity(n);
                for _ in 0..n {
                    let words = c.words()?;
                    let bonus = c.f32()?;
                    phrases.push((words, bonus));
                }
                ClientMsg::AddBias { name, phrases }
            }
            T_RETIRE_BIAS => ClientMsg::RetireBias { name: c.string()? },
            t => return Err(bad(&format!("unknown client tag {t:#04x}"))),
        };
        c.done()?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Serializes tag + payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ServerMsg::Opened { session } => {
                buf.push(T_OPENED);
                put_u64(&mut buf, *session);
            }
            ServerMsg::Rejected { reason } => {
                buf.push(T_REJECTED);
                buf.push(match reason {
                    RejectReason::AtCapacity => 0,
                    RejectReason::Overloaded => 1,
                });
            }
            ServerMsg::Partial { words } => {
                buf.push(T_PARTIAL);
                put_words(&mut buf, words);
            }
            ServerMsg::Final {
                words,
                cost,
                frames,
            } => {
                buf.push(T_FINAL);
                put_words(&mut buf, words);
                buf.extend_from_slice(&cost.to_le_bytes());
                put_u64(&mut buf, *frames);
            }
            ServerMsg::Error { msg } => {
                buf.push(T_ERROR);
                put_string(&mut buf, msg);
            }
            ServerMsg::Stats { jsonl } => {
                buf.push(T_STATS_REPLY);
                put_string(&mut buf, jsonl);
            }
            ServerMsg::Dump { flight, spans } => {
                buf.push(T_DUMP_REPLY);
                put_string(&mut buf, flight);
                put_string(&mut buf, spans);
            }
            ServerMsg::Ack => buf.push(T_ACK),
        }
        buf
    }

    /// Parses tag + payload.
    ///
    /// # Errors
    /// `InvalidData` on unknown tags or malformed payloads.
    pub fn decode(buf: &[u8]) -> io::Result<ServerMsg> {
        let mut c = Cursor::new(buf);
        let msg = match c.u8()? {
            T_OPENED => ServerMsg::Opened { session: c.u64()? },
            T_REJECTED => ServerMsg::Rejected {
                reason: match c.u8()? {
                    0 => RejectReason::AtCapacity,
                    1 => RejectReason::Overloaded,
                    r => return Err(bad(&format!("unknown reject reason {r}"))),
                },
            },
            T_PARTIAL => ServerMsg::Partial { words: c.words()? },
            T_FINAL => ServerMsg::Final {
                words: c.words()?,
                cost: c.f32()?,
                frames: c.u64()?,
            },
            T_ERROR => ServerMsg::Error { msg: c.string()? },
            T_STATS_REPLY => ServerMsg::Stats { jsonl: c.string()? },
            T_DUMP_REPLY => ServerMsg::Dump {
                flight: c.string()?,
                spans: c.string()?,
            },
            T_ACK => ServerMsg::Ack,
            t => return Err(bad(&format!("unknown server tag {t:#04x}"))),
        };
        c.done()?;
        Ok(msg)
    }
}

fn write_framed(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one length-prefixed message body. `Ok(None)` on clean EOF at
/// a message boundary. The body buffer grows as bytes arrive (from at
/// most 64 KiB), so a bare length prefix cannot make the reader
/// allocate the [`MAX_MESSAGE`] it may declare.
///
/// # Errors
/// I/O errors, EOF mid-message, or a length beyond [`MAX_MESSAGE`].
fn read_framed(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_MESSAGE {
        return Err(bad("bad message length"));
    }
    let mut body = Vec::with_capacity(len.min(64 << 10));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(body))
}

/// Writes one client message, length-prefixed.
///
/// # Errors
/// Underlying I/O errors.
pub fn write_client(w: &mut impl Write, msg: &ClientMsg) -> io::Result<()> {
    write_framed(w, &msg.encode())
}

/// Reads one client message; `Ok(None)` on clean EOF.
///
/// # Errors
/// I/O errors or malformed messages.
pub fn read_client(r: &mut impl Read) -> io::Result<Option<ClientMsg>> {
    read_framed(r)?.map(|b| ClientMsg::decode(&b)).transpose()
}

/// Writes one server message, length-prefixed.
///
/// # Errors
/// Underlying I/O errors.
pub fn write_server(w: &mut impl Write, msg: &ServerMsg) -> io::Result<()> {
    write_framed(w, &msg.encode())
}

/// Reads one server message; `Ok(None)` on clean EOF.
///
/// # Errors
/// I/O errors or malformed messages.
pub fn read_server(r: &mut impl Read) -> io::Result<Option<ServerMsg>> {
    read_framed(r)?.map(|b| ServerMsg::decode(&b)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(msg: ClientMsg) {
        let mut buf = Vec::new();
        write_client(&mut buf, &msg).unwrap();
        let back = read_client(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, msg);
    }

    fn roundtrip_server(msg: ServerMsg) {
        let mut buf = Vec::new();
        write_server(&mut buf, &msg).unwrap();
        let back = read_server(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Open {
            lm: None,
            bias: None,
        });
        roundtrip_client(ClientMsg::Open {
            lm: Some("tedlium-variant-7".into()),
            bias: None,
        });
        roundtrip_client(ClientMsg::Open {
            lm: None,
            bias: Some("contacts-42".into()),
        });
        roundtrip_client(ClientMsg::Open {
            lm: Some("variant-3".into()),
            bias: Some("hotwords".into()),
        });
        roundtrip_client(ClientMsg::FramesV2(vec![
            FrameInput::Scores(vec![1.0, -2.5]),
            FrameInput::Scores(vec![0.0, 3.25]),
        ]));
        roundtrip_client(ClientMsg::FramesV2(vec![
            FrameInput::Features(vec![0.5, -1.5, 2.0]),
            FrameInput::Features(vec![1.25, 0.0, -3.0]),
        ]));
        roundtrip_client(ClientMsg::FramesV2(Vec::new()));
        roundtrip_client(ClientMsg::Finish);
        roundtrip_client(ClientMsg::Stats);
        roundtrip_client(ClientMsg::Shutdown);
        roundtrip_client(ClientMsg::Dump);
        roundtrip_client(ClientMsg::AddBias {
            name: "contacts-42".into(),
            phrases: vec![(vec![3, 5, 7], 2.5), (vec![9], 1.0)],
        });
        roundtrip_client(ClientMsg::AddBias {
            name: "empty".into(),
            phrases: Vec::new(),
        });
        roundtrip_client(ClientMsg::RetireBias {
            name: "contacts-42".into(),
        });
    }

    /// A bare `T_OPEN` — the entire pre-registry protocol — must still
    /// parse, as the default-model open.
    #[test]
    fn legacy_bare_open_still_parses_as_default() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(T_OPEN);
        assert_eq!(
            read_client(&mut buf.as_slice()).unwrap(),
            Some(ClientMsg::Open {
                lm: None,
                bias: None
            })
        );
        // And the `lm: None` encoding is exactly that legacy frame.
        let mut out = Vec::new();
        write_client(
            &mut out,
            &ClientMsg::Open {
                lm: None,
                bias: None,
            },
        )
        .unwrap();
        assert_eq!(out, buf);
    }

    /// An LM-only `Open` (the pre-biasing registry protocol) must keep
    /// its exact frame bytes: one trailing string, no bias slot.
    #[test]
    fn lm_only_open_keeps_the_single_string_frame() {
        let msg = ClientMsg::Open {
            lm: Some("alt".into()),
            bias: None,
        };
        let body = msg.encode();
        assert_eq!(body.len(), 1 + 4 + 3, "tag + len + name only");
        assert_eq!(ClientMsg::decode(&body).unwrap(), msg);
    }

    /// The unversioned score-row message (tag `0x02`) is retired: a
    /// body in its old layout is an unknown tag, `InvalidData`, never
    /// misparsed as frames. Score rows travel as `FramesV2` kind 0.
    #[test]
    fn retired_frames_tag_is_invalid_data() {
        let cells = [1.0f32, -2.5].iter().flat_map(|v| v.to_le_bytes());
        let body: Vec<u8> = [0x02]
            .into_iter()
            .chain(1u32.to_le_bytes())
            .chain(2u32.to_le_bytes())
            .chain(cells)
            .collect();
        let err = ClientMsg::decode(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unknown client tag 0x02"),
            "got: {err}"
        );
        let v2 = ClientMsg::FramesV2(vec![FrameInput::Scores(vec![1.0, -2.5])]).encode();
        assert_eq!(&v2[..3], &[T_FRAMES_V2, FRAMES_V2_VERSION, KIND_SCORES]);
        assert_eq!(&v2[3..], &body[1..], "same rows after version + kind");
    }

    /// Unknown v2 versions and frame kinds are loud `InvalidData`
    /// errors, never misparses.
    #[test]
    fn frames_v2_rejects_unknown_version_and_kind() {
        let good = ClientMsg::FramesV2(vec![FrameInput::Features(vec![1.0])]).encode();
        let mut bad_version = good.clone();
        bad_version[1] = FRAMES_V2_VERSION + 1;
        let err = ClientMsg::decode(&bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
        let mut bad_kind = good;
        bad_kind[2] = 9;
        let err = ClientMsg::decode(&bad_kind).unwrap_err();
        assert!(err.to_string().contains("kind"), "got: {err}");
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::Opened { session: 7 });
        roundtrip_server(ServerMsg::Rejected {
            reason: RejectReason::AtCapacity,
        });
        roundtrip_server(ServerMsg::Rejected {
            reason: RejectReason::Overloaded,
        });
        roundtrip_server(ServerMsg::Partial { words: vec![1, 2] });
        roundtrip_server(ServerMsg::Final {
            words: vec![3, 9, 17],
            cost: 42.5,
            frames: 120,
        });
        roundtrip_server(ServerMsg::Error {
            msg: "queue full".into(),
        });
        roundtrip_server(ServerMsg::Stats {
            jsonl: "{\"record\":\"run\"}".into(),
        });
        roundtrip_server(ServerMsg::Dump {
            flight: "{\"record\":\"flight\"}\n".into(),
            spans: "{\"record\":\"sspan\"}\n".into(),
        });
        roundtrip_server(ServerMsg::Dump {
            flight: String::new(),
            spans: String::new(),
        });
        roundtrip_server(ServerMsg::Ack);
    }

    #[test]
    fn several_messages_stream_back_to_back() {
        let open = ClientMsg::Open {
            lm: None,
            bias: None,
        };
        let mut buf = Vec::new();
        write_client(&mut buf, &open).unwrap();
        let frames = ClientMsg::FramesV2(vec![FrameInput::Scores(vec![1.0])]);
        write_client(&mut buf, &frames).unwrap();
        write_client(&mut buf, &ClientMsg::Finish).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_client(&mut r).unwrap(), Some(open));
        assert_eq!(read_client(&mut r).unwrap(), Some(frames));
        assert_eq!(read_client(&mut r).unwrap(), Some(ClientMsg::Finish));
        assert_eq!(read_client(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn malformed_input_is_invalid_data_not_panic() {
        // Zero length.
        let z = 0u32.to_le_bytes();
        assert!(read_client(&mut z.as_slice()).is_err());
        // Absurd length.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_client(&mut huge.as_slice()).is_err());
        // Unknown tag.
        let mut bad_tag = Vec::new();
        bad_tag.extend_from_slice(&1u32.to_le_bytes());
        bad_tag.push(0x7F);
        assert!(read_client(&mut bad_tag.as_slice()).is_err());
        // Truncated payload (EOF mid-message).
        let mut trunc = Vec::new();
        trunc.extend_from_slice(&100u32.to_le_bytes());
        trunc.push(T_FRAMES_V2);
        assert!(read_client(&mut trunc.as_slice()).is_err());
        // Trailing bytes after a complete payload.
        let mut trailing = Vec::new();
        trailing.extend_from_slice(&2u32.to_le_bytes());
        trailing.push(T_OPEN);
        trailing.push(0xAA);
        assert!(read_client(&mut trailing.as_slice()).is_err());
        // Frame batch whose declared size overflows.
        let mut overflow = Vec::new();
        let body = [
            &[T_FRAMES_V2, FRAMES_V2_VERSION, KIND_SCORES][..],
            &u32::MAX.to_le_bytes(),
            &u32::MAX.to_le_bytes(),
        ]
        .concat();
        overflow.extend_from_slice(&(body.len() as u32).to_le_bytes());
        overflow.extend_from_slice(&body);
        assert!(read_client(&mut overflow.as_slice()).is_err());
        // Dump reply missing its second string.
        let mut short_dump = Vec::new();
        let body = [&[T_DUMP_REPLY][..], &0u32.to_le_bytes()].concat();
        short_dump.extend_from_slice(&(body.len() as u32).to_le_bytes());
        short_dump.extend_from_slice(&body);
        assert!(read_server(&mut short_dump.as_slice()).is_err());
    }
}
