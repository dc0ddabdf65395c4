//! A decode task must not allocate: the worker's decoding plane owns its
//! message, posterior and staging buffers, and `decode_into` writes the
//! hard decisions straight into the frame's `decoded` plane. A counting
//! global allocator makes that claim checkable, on both planes.

use agora_core::{EngineConfig, InlineProcessor};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_phy::CellConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by *this* thread: the harness runs tests in
    /// parallel, so a process-wide count would charge one test's
    /// measured window with another's work. Const-initialised and
    /// destructor-free, so touching it from the allocator never
    /// allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// System allocator with an allocation counter.
struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a thread-local cell with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator can be called while TLS is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn decode_tasks_allocate(quantized: bool) -> u64 {
    let cell = CellConfig::tiny_test(2);
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 28.0, seed: 5, ..Default::default() });
    let (packets, _) = rru.generate_frame(0);
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    cfg.quantized_decoder = quantized;
    // One inline frame leaves the LLR planes filled for the tasks to re-run on.
    let mut proc = InlineProcessor::new(cfg);
    let reference = proc.process_frame(0, &packets);
    let (kernels, fb) = (proc.kernels(), proc.buffers(0));
    let mut scratch = kernels.scratch();
    let uplink = cell.schedule.uplink_indices();
    let mut run = || {
        for &symbol in &uplink {
            for user in 0..cell.num_users {
                kernels.decode_task(fb, &mut scratch, symbol, user);
            }
        }
    };
    run();
    // SAFETY (here and below): single-threaded, no task in flight.
    unsafe { fb.decoded.slice_mut(0..fb.decoded.len()) }.fill(2);
    let before = allocations();
    run();
    let allocated = allocations() - before;
    for &symbol in &uplink {
        for user in 0..cell.num_users {
            let range = fb.decoded_range(&kernels.geom, symbol, user);
            let got = unsafe { fb.decoded.slice(range) };
            assert_eq!(got, &reference.decoded[symbol][user][..], "symbol {symbol} user {user}");
        }
    }
    allocated
}

#[test]
fn f32_decode_task_is_allocation_free() {
    assert_eq!(decode_tasks_allocate(false), 0);
}

#[test]
fn i8_decode_task_is_allocation_free() {
    assert_eq!(decode_tasks_allocate(true), 0);
}
