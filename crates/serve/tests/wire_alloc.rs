//! A 4-byte length prefix must not buy the allocation it declares: the
//! wire reader grows a message body as its bytes arrive. A counting
//! global allocator measures the peak while a client message that
//! declares `MAX_MESSAGE` bytes and then ends is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use unfold_serve::wire::{read_client, MAX_MESSAGE};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to `System`, only counting sizes on the way.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
        PEAK.fetch_max(live, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_bare_length_prefix_is_eof_without_a_large_allocation() {
    let prefix = (MAX_MESSAGE as u32).to_le_bytes();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let err = read_client(&mut &prefix[..]).unwrap_err();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        peak < 1 << 20,
        "reading a {MAX_MESSAGE}-byte prefix peaked at {peak} bytes"
    );
}
