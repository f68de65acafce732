//! `Conv2d` allocates per call, not per image: its buffers are sized for
//! the whole batch once, and the GEMM packs into thread-local scratch.
//! A params-only backward pass allocates less than a full one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deta_crypto::DetRng;
use deta_nn::{Conv2d, Layer};
use deta_tensor::Tensor;

thread_local! {
    /// Allocations made by this thread (the test harness's other threads
    /// must not leak into the count).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

/// Allocations of the second training pass over a `batch`-image batch
/// (the first pass grows the packing scratch to its final size), with
/// `backward` as the backward half of the pass.
fn allocations_of_a_warm_pass(batch: usize, backward: fn(&mut Conv2d, &Tensor)) -> usize {
    let mut rng = DetRng::from_u64(0xa110c);
    let mut conv = Conv2d::new(3, 8, 16, 16, 3, 1, 1, &mut rng);
    let x = Tensor::randn(&[batch, 3 * 16 * 16], 1.0, &mut rng);
    let grad = Tensor::randn(&[batch, conv.out_features()], 1.0, &mut rng);
    conv.zero_grad();
    let mut pass = || {
        conv.forward(&x, true);
        backward(&mut conv, &grad);
    };
    pass();
    let before = ALLOCS.with(Cell::get);
    pass();
    ALLOCS.with(Cell::get) - before
}

fn full(conv: &mut Conv2d, grad: &Tensor) {
    conv.backward(grad);
}

fn params_only(conv: &mut Conv2d, grad: &Tensor) {
    conv.backward_params(grad);
}

#[test]
fn conv_allocations_do_not_depend_on_batch_size() {
    let small = allocations_of_a_warm_pass(4, full);
    let large = allocations_of_a_warm_pass(32, full);
    assert_eq!(small, large, "allocations grew with the batch");
    assert!((1..=16).contains(&large), "{large} allocations in one pass");
}

#[test]
fn a_params_only_conv_pass_allocates_less_than_a_full_one() {
    // No input gradient: neither its buffer nor the per-image dCols.
    let small = allocations_of_a_warm_pass(4, params_only);
    let large = allocations_of_a_warm_pass(32, params_only);
    assert_eq!(small, large, "allocations grew with the batch");
    let whole = allocations_of_a_warm_pass(32, full);
    assert!(
        (1..whole).contains(&large),
        "{large} allocations params-only against {whole} in a full pass"
    );
}
