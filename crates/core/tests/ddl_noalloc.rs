//! Allocation regression tests for the warm scratch-reuse paths, run
//! under a counting global allocator: once a caller-owned scratch buffer
//! has been sized by a first (warmup) application, replaying the same
//! plan must hit the heap **zero** times — both for the recursive DDL
//! engine (`apply_plan_ddl_with_scratch`) and the compiled relayout
//! executor (`CompiledPlan::apply_with_scratch`). Per-subtree heap churn
//! in `ddl_rec` (a fresh inner scratch per gathered subtree) is exactly
//! the regression this file pins down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wht_core::ddl::DdlConfig;
use wht_core::{
    apply_plan_ddl_with_scratch, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy, Plan,
    RelayoutPolicy, Scalar, SimdPolicy,
};

/// System allocator wrapper that counts the allocations (including
/// reallocs, which acquire new memory too) of a thread while that thread
/// is inside [`allocations_during`]. Deallocations are free. The count is
/// thread-local, so the test harness and concurrently running tests
/// allocating on their own threads never show up in it.
struct CountingAlloc;

thread_local! {
    /// `Some(count)` while this thread's allocations are being counted.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown, after the slot is
    // gone, are simply not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

/// Heap allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS.with(|c| c.replace(None)).expect("armed above")
}

// SAFETY: pure pass-through to `System` plus a side-effect-free
// thread-local counter bump (a const-initialized `Cell`, which never
// allocates) — every GlobalAlloc contract obligation is `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn signal(n: u32) -> Vec<f64> {
    (0..1usize << n)
        .map(|j| ((j.wrapping_mul(0x9E3779B9)) % 512) as f64 / 64.0 - 4.0)
        .collect()
}

#[test]
fn ddl_with_scratch_does_not_allocate_after_warmup() {
    // left_recursive is the shape whose strides grow fastest — every
    // level past the threshold gathers, so this exercises the split-based
    // scratch reuse hardest.
    let n = 12u32;
    let plan = Plan::left_recursive(n).unwrap();
    let cfg = DdlConfig::default();
    let mut x = signal(n);
    let mut scratch: Vec<f64> = Vec::new();

    // Warmup: sizes the scratch once (and computes the reference result).
    apply_plan_ddl_with_scratch(&plan, &mut x, cfg, &mut scratch).unwrap();
    let mut reference = signal(n);
    wht_core::apply_plan_recursive(&plan, &mut reference).unwrap();
    assert_eq!(x, reference, "warmup run must be correct");

    // Warm replays: zero heap traffic, still correct.
    let mut y = signal(n);
    let allocations = allocations_during(|| {
        apply_plan_ddl_with_scratch(&plan, &mut y, cfg, &mut scratch).unwrap();
        apply_plan_ddl_with_scratch(&plan, &mut y, cfg, &mut scratch).unwrap();
    });
    assert_eq!(allocations, 0, "warm DDL replays must not touch the heap");

    // A tighter threshold (more gathers) re-sizes at most once, then is
    // allocation-free again.
    let tight = DdlConfig {
        stride_threshold_log2: 0,
    };
    let mut z = signal(n);
    apply_plan_ddl_with_scratch(&plan, &mut z, tight, &mut scratch).unwrap();
    let mut w = signal(n);
    let allocations = allocations_during(|| {
        apply_plan_ddl_with_scratch(&plan, &mut w, tight, &mut scratch).unwrap();
    });
    assert_eq!(allocations, 0);
}

#[test]
fn compiled_relayout_with_scratch_does_not_allocate_after_warmup() {
    let n = 14u32;
    let relaid = CompiledPlan::compile(&Plan::iterative(n).unwrap())
        .fuse(&FusionPolicy::new(1 << 6))
        .relayout(&RelayoutPolicy::eager(1 << 9))
        .with_simd(&SimdPolicy::auto());
    assert!(relaid.has_relayout());
    let mut x = signal(n);
    let mut scratch: Vec<f64> = Vec::new();
    relaid.apply_with_scratch(&mut x, &mut scratch).unwrap();
    assert_eq!(scratch.len(), relaid.scratch_elems());

    let mut y = signal(n);
    let allocations = allocations_during(|| {
        relaid.apply_with_scratch(&mut y, &mut scratch).unwrap();
        relaid.apply_with_scratch(&mut y, &mut scratch).unwrap();
    });
    assert_eq!(
        allocations, 0,
        "warm relayout replays must not touch the heap"
    );
}

#[test]
fn apply_batch_with_scratch_does_not_allocate_after_warmup() {
    // The batched-small fast path: the first call sizes the scratch for
    // the transposed cross tile (and the per-row schedule, which also
    // serves the remainder rows), then every warm batch — engaged lane
    // groups, remainder, and all — must be allocation-free.
    let n = 10u32;
    let compiled = CompiledPlan::compile(&Plan::iterative(n).unwrap()).lower(&ExecPolicy {
        batch: BatchPolicy::new(1),
        ..ExecPolicy::default()
    });
    assert!(
        compiled.batch_schedule().is_some(),
        "the lowered plan must carry a batch schedule"
    );
    let size = compiled.size();
    // Rows chosen to engage the cross path and leave a remainder.
    let rows = 2 * <f64 as Scalar>::LANES + 3;
    let mut x: Vec<f64> = (0..rows * size)
        .map(|j| ((j.wrapping_mul(0x9E3779B9)) % 512) as f64 / 64.0 - 4.0)
        .collect();
    let mut scratch: Vec<f64> = Vec::new();
    compiled
        .apply_batch_with_scratch(&mut x, rows, &mut scratch)
        .unwrap();

    let allocations = allocations_during(|| {
        compiled
            .apply_batch_with_scratch(&mut x, rows, &mut scratch)
            .unwrap();
        compiled
            .apply_batch_with_scratch(&mut x, rows, &mut scratch)
            .unwrap();
        // A smaller batch (below the engagement threshold, so per-row
        // replay) must reuse the same scratch too.
        let small_rows = 2;
        compiled
            .apply_batch_with_scratch(&mut x[..small_rows * size], small_rows, &mut scratch)
            .unwrap();
    });
    assert_eq!(
        allocations, 0,
        "warm batched replays must not touch the heap"
    );
}
