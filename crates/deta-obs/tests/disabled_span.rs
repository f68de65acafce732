//! A span while the sink is disabled costs no allocation, text label
//! included. Alone in its binary: nothing here ever calls `enable`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_disabled_span_with_a_label_allocates_nothing() {
    assert!(!deta_obs::enabled());
    let peer = String::from("agg-0");
    let before = BYTES.with(Cell::get);
    for round in 0..100u64 {
        let _span = deta_obs::span("handshake")
            .with_label("peer", &peer)
            .with_field("round", round.into());
    }
    assert_eq!(BYTES.with(Cell::get), before);
}
