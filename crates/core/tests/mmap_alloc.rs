//! A mapped bundle open must not copy the models to the heap. A
//! counting global allocator sums the bytes requested while
//! `Models::open_mmap` binds the TED-LIUM preset's bundle (section
//! table and model headers only), and checks the owned `Models::open`
//! against the same bundle so the counter is known to see the copy.
//!
//! Linux x86-64 only: elsewhere `Mapped` falls back to reading the file
//! into an owned buffer by design.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};

use unfold::{pack_system, Models, System, TaskSpec};

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator, only counting sizes on the
// way (the default `realloc` goes through `alloc`, so growth counts).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated while `f` runs, plus its result.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATED.load(Ordering::SeqCst) - before, out)
}

#[test]
fn mmap_open_allocates_headers_only_and_owned_open_copies_the_bundle() {
    let system = System::build(&TaskSpec::tedlium_kaldi());
    let bytes = pack_system(&system, &[1]).expect("pack succeeds");
    let path = std::env::temp_dir().join(format!("unfold-mmap-alloc-{}.unfb", std::process::id()));
    std::fs::write(&path, &bytes).expect("bundle written");

    let (mapped, models) = allocated_during(|| Models::open_mmap(&path));
    let models = models.expect("mapped open");
    assert_eq!(models.lm_names().len(), 2, "default + one variant");
    drop(models);
    let (owned, models) = allocated_during(|| Models::open(&path));
    models.expect("owned open");
    std::fs::remove_file(&path).ok();

    assert!(
        mapped < 64 * 1024,
        "mapped open of a {}-byte bundle allocated {mapped} bytes",
        bytes.len()
    );
    assert!(
        owned >= bytes.len(),
        "owned open allocated {owned} bytes, less than the {}-byte bundle",
        bytes.len()
    );
}
