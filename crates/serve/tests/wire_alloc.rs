//! A message must not buy the allocation it declares. A counting
//! global allocator measures the peak heap growth of the calling
//! thread while the wire reader and both message decoders run: a
//! 4-byte length prefix, a declared row or phrase count, or a zero row
//! width may not make them allocate more than the bytes actually sent
//! can fill.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use unfold_serve::wire::{read_client, MAX_MESSAGE};
use unfold_serve::{ClientMsg, FrameInput, RejectReason, ServerMsg};

struct Counting;

// Per thread, so tests running side by side do not see each other's
// allocations. Const-initialized cells without `Drop` never allocate
// or register a destructor, which keeps them usable from the allocator.
thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: forwards to `System`, only counting sizes on the way.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak heap growth, in
/// bytes, this thread reached while it ran (what `f` returns included).
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

/// The allowance for decoding `len` bytes: the widest ratio a message
/// can reach, a batch of one-wide rows, where each 4-byte score cell
/// becomes a `FrameInput` plus a 4-byte heap row (9× on 64-bit), plus
/// 4 KiB for error strings and small buffers.
fn budget(len: usize) -> usize {
    (std::mem::size_of::<FrameInput>() + 4) * len / 4 + 4096
}

/// Feeds `body` to both decoders and checks each stays in budget.
fn assert_decodes_in_budget(body: &[u8]) {
    let (_, peak) = peak_of(|| ClientMsg::decode(body));
    assert!(
        peak <= budget(body.len()),
        "ClientMsg::decode of {} bytes peaked at {peak} bytes: {body:02x?}",
        body.len()
    );
    let (_, peak) = peak_of(|| ServerMsg::decode(body));
    assert!(
        peak <= budget(body.len()),
        "ServerMsg::decode of {} bytes peaked at {peak} bytes: {body:02x?}",
        body.len()
    );
}

#[test]
fn a_bare_length_prefix_is_eof_without_a_large_allocation() {
    let prefix = (MAX_MESSAGE as u32).to_le_bytes();
    let (res, peak) = peak_of(|| read_client(&mut &prefix[..]));
    assert_eq!(res.unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        peak < 1 << 20,
        "reading a {MAX_MESSAGE}-byte prefix peaked at {peak} bytes"
    );
}

/// `FramesV2` (tag 0x09, version 1, kind 0) declaring 16 M rows of
/// width 0: eleven bytes. Zero-width rows carry no bytes, so a bound on
/// `n × width` alone let this allocate a 16 M-entry row vector.
#[test]
fn zero_width_frame_batch_is_refused_without_allocating() {
    let body: Vec<u8> = [0x09, 1, 0]
        .into_iter()
        .chain((16u32 << 20).to_le_bytes())
        .chain(0u32.to_le_bytes())
        .collect();
    assert_eq!(body.len(), 11);
    let (res, peak) = peak_of(|| ClientMsg::decode(&body));
    let err = res.expect_err("a zero-width batch of rows must not decode");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(peak <= budget(body.len()), "peaked at {peak} bytes");
}

/// `AddBias` (tag 0x07) with an empty name declaring 8 M phrases: nine
/// bytes, which used to reserve the whole phrase vector before failing
/// as truncated.
#[test]
fn oversized_phrase_count_is_refused_without_allocating() {
    let body: Vec<u8> = [0x07]
        .into_iter()
        .chain(0u32.to_le_bytes())
        .chain((8u32 << 20).to_le_bytes())
        .collect();
    assert_eq!(body.len(), 9);
    let (res, peak) = peak_of(|| ClientMsg::decode(&body));
    assert_eq!(res.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    assert!(peak <= budget(body.len()), "peaked at {peak} bytes");
}

/// The budget's own worst case, genuinely sent: 100 000 one-wide score
/// rows decode, and the peak meets the 9× allowance (8× would not).
#[test]
fn large_one_wide_frame_batch_decodes_within_budget() {
    let rows: Vec<FrameInput> = (0..100_000)
        .map(|i| FrameInput::Scores(vec![i as f32]))
        .collect();
    let body = ClientMsg::FramesV2(rows.clone()).encode();
    let (res, peak) = peak_of(|| ClientMsg::decode(&body));
    assert_eq!(res.unwrap(), ClientMsg::FramesV2(rows));
    assert!(
        peak <= budget(body.len()),
        "{} bytes peaked at {peak} bytes",
        body.len()
    );
    assert!(peak > 8 * body.len(), "peaked at {peak} bytes");
}

/// One encoding of every client and server message.
fn every_message() -> Vec<Vec<u8>> {
    let rows = |w: usize, n: usize| -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..w).map(|j| (i * w + j) as f32 * 0.5).collect())
            .collect()
    };
    vec![
        ClientMsg::Open {
            lm: None,
            bias: None,
        }
        .encode(),
        ClientMsg::Open {
            lm: Some("tedlium".into()),
            bias: None,
        }
        .encode(),
        ClientMsg::Open {
            lm: None,
            bias: Some("contacts".into()),
        }
        .encode(),
        ClientMsg::FramesV2(Vec::new()).encode(),
        ClientMsg::FramesV2(rows(1, 40).into_iter().map(FrameInput::Scores).collect()).encode(),
        ClientMsg::FramesV2(rows(3, 5).into_iter().map(FrameInput::Features).collect()).encode(),
        ClientMsg::Finish.encode(),
        ClientMsg::Stats.encode(),
        ClientMsg::Shutdown.encode(),
        ClientMsg::Dump.encode(),
        ClientMsg::AddBias {
            name: "hot".into(),
            phrases: vec![(vec![3, 5, 7], 2.5), (vec![], 1.0), (vec![9], 0.5)],
        }
        .encode(),
        ClientMsg::RetireBias { name: "hot".into() }.encode(),
        ServerMsg::Opened { session: 7 }.encode(),
        ServerMsg::Rejected {
            reason: RejectReason::Overloaded,
        }
        .encode(),
        ServerMsg::Partial {
            words: vec![1, 2, 3],
        }
        .encode(),
        ServerMsg::Final {
            words: vec![4, 5],
            cost: 12.5,
            frames: 300,
        }
        .encode(),
        ServerMsg::Error { msg: "nope".into() }.encode(),
        ServerMsg::Stats {
            jsonl: "{\"a\":1}".into(),
        }
        .encode(),
        ServerMsg::Dump {
            flight: "f".into(),
            spans: "s".into(),
        }
        .encode(),
        ServerMsg::Ack.encode(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: neither decoder panics, and neither allocates
    /// beyond the budget of what it was given.
    #[test]
    fn arbitrary_bytes_decode_in_budget(
        body in collection::vec(any::<u8>(), 0..64),
        tag in prop_oneof![(0x01u8..=0x09), (0x81u8..=0x88), Just(0u8)],
    ) {
        // Lead with a real tag most of the time, so the payload parsers
        // are reached rather than the unknown-tag error.
        let mut body = body;
        if tag != 0 && !body.is_empty() {
            body[0] = tag;
        }
        assert_decodes_in_budget(&body);
    }

    /// Encodings of every message with one little-endian `u32` window
    /// overwritten (the declared counts and widths live in such
    /// windows), one byte flipped, and the tail cut at a random point.
    #[test]
    fn mutated_encodings_decode_in_budget(
        which in 0usize..20,
        at in 0usize..64,
        word in prop_oneof![any::<u32>(), (0u32..8), Just(u32::MAX), Just(16u32 << 20)],
        flip in (0usize..64, any::<u8>()),
        cut in 0usize..4,
    ) {
        let messages = every_message();
        let base = &messages[which % messages.len()];
        assert_decodes_in_budget(base);
        let mut body = base.clone();
        if body.len() >= 4 {
            let at = at % (body.len() - 3);
            body[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        assert_decodes_in_budget(&body);
        let i = flip.0 % body.len();
        body[i] ^= flip.1;
        assert_decodes_in_budget(&body);
        body.truncate(body.len().saturating_sub(cut));
        assert_decodes_in_budget(&body);
    }
}
