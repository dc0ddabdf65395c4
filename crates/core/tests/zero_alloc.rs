//! No task body allocates: the worker's scratch owns the transform grid,
//! the IFFT's precoded antenna runs, the ZF intermediates, the GEMM blocks and the
//! decoder's buffers, the encode task keeps its payload and codeword on
//! the stack, and every body writes straight into the frame's planes. Nor
//! does the manager's frame table once a frame's first packet has built
//! its record. A counting global allocator makes both claims checkable.

use agora_core::state::{FrameShape, FrameTable};
use agora_core::{BatchSizes, EngineConfig, InlineProcessor};
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use agora_queue::{Msg, TaskType};
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

/// Runs every task body of one pilot + uplink + downlink frame on a fresh
/// scratch, twice: the second time none may allocate, and the planes it
/// rewrote must hold what the inline pass left.
#[test]
fn task_bodies_are_allocation_free() {
    let mut cell = CellConfig::tiny_test(1);
    cell.schedule = FrameSchedule::parse("PUD").expect("valid schedule");
    let (pilot, uplink, downlink) = (0, 1, 2);
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 28.0, seed: 5, ..Default::default() });
    let (packets, _) = rru.generate_frame(0);
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    // One inline frame leaves the packets, `dl_bits` and every plane
    // filled for the tasks to re-run on.
    let mut proc = InlineProcessor::new(cfg);
    let reference = proc.process_frame(0, &packets);
    let (kernels, fb) = (proc.kernels(), proc.buffers(0));
    let g = kernels.geom;
    let mut scratch = kernels.scratch();
    // SAFETY (here and below): single-threaded, no task in flight, and no
    // view alive across a `fill`.
    let (llr, dl_time) = unsafe { (fb.llr.view(None).to_vec(), fb.dl_time.view(None).to_vec()) };
    let dl_bits = |user| unsafe { fb.dl_bits.view(Some((downlink, user))).to_vec() };
    let dl_bits: Vec<Vec<u8>> = (0..g.k).map(dl_bits).collect();

    let mut counts = Vec::new();
    for pass in 0..2 {
        unsafe {
            fb.llr.fill(0);
            fb.decoded.fill(2);
            fb.dl_bits.fill(0xA5);
            fb.dl_time.fill(agora_math::Cf32::ZERO);
        }
        let mut body = |name: &'static str, run: &mut dyn FnMut()| {
            let before = allocations();
            run();
            if pass == 1 {
                counts.push((name, allocations() - before));
            }
        };
        let s = &mut scratch;
        body("fft", &mut || {
            for symbol in [pilot, uplink] {
                (0..g.m).for_each(|ant| kernels.fft_task(fb, s, symbol, ant));
            }
        });
        body("zf", &mut || {
            (0..kernels.shape.zf_groups).for_each(|group| kernels.zf_task(fb, s, group))
        });
        body("demod", &mut || kernels.demod_task(fb, s, 0, uplink, 0, g.q));
        body("decode", &mut || (0..g.k).for_each(|user| kernels.decode_task(fb, s, uplink, user)));
        body("decode users", &mut || kernels.decode_users_task(fb, s, uplink, 0, g.k));
        body("encode", &mut || {
            (0..g.k).for_each(|user| kernels.encode_task(fb, 0, downlink, user))
        });
        body("precode", &mut || kernels.precode_task(fb, s, downlink, 0, g.q));
        body("ifft", &mut || (0..g.m).for_each(|ant| kernels.ifft_task(fb, s, downlink, ant)));
    }

    unsafe {
        for user in 0..g.k {
            let got = fb.decoded.view(Some((uplink, user)));
            assert_eq!(got, &reference.decoded[uplink][user][..], "user {user}");
        }
        for (user, bits) in dl_bits.iter().enumerate() {
            assert_eq!(fb.dl_bits.view(Some((downlink, user))), &bits[..], "user {user}");
        }
        assert_eq!(fb.llr.view(None), &llr[..]);
        assert!(fb.dl_time.view(None) == &dl_time[..]);
    }
    assert!(llr.iter().any(|&l| l != 0), "the LLR plane is empty");
    assert!(dl_bits.iter().flatten().any(|&b| b != 0), "the dl_bits rows are empty");
    assert!(dl_time.iter().any(|&z| z != agora_math::Cf32::ZERO));
    let none = [
        ("fft", 0),
        ("zf", 0),
        ("demod", 0),
        ("decode", 0),
        ("decode users", 0),
        ("encode", 0),
        ("precode", 0),
        ("ifft", 0),
    ];
    assert_eq!(counts, none);
}

/// From a `PUD` frame's second packet on, no arrival and no completion
/// allocates: pilot FFTs → ZF → demod → decode, and encode → precode →
/// IFFT, every message emitted into a buffer with room for it.
#[test]
fn frame_table_calls_are_allocation_free_after_the_first_packet() {
    let mut cell = CellConfig::tiny_test(1);
    cell.schedule = FrameSchedule::parse("PUD").expect("valid schedule");
    let shape = FrameShape::new(&cell);
    let mut table = FrameTable::new(cell.schedule.clone(), shape, BatchSizes::default(), false, 0);
    let (mut out, mut work) = (Vec::with_capacity(1024), Vec::<Msg>::with_capacity(1024));
    // The first packet builds the frame's record (and emits its encodes).
    table.on_packet(0, 0, 0, 0, &mut out);
    work.append(&mut out);

    let mut counts = Vec::new();
    for (symbol, antenna) in (0..2).flat_map(|s| (0..shape.m).map(move |a| (s, a))).skip(1) {
        let before = allocations();
        table.on_packet(0, symbol, antenna, 0, &mut out);
        counts.push((TaskType::PacketRx, allocations() - before));
        work.append(&mut out);
    }
    let mut finished = false;
    while let Some(msg) = work.pop() {
        let before = allocations();
        finished = table.on_complete(&msg, 0, &mut out);
        counts.push((msg.task, allocations() - before));
        work.append(&mut out);
    }
    assert!(finished && table.retire(0).is_some(), "the frame ran to completion");
    for task in TaskType::COMPUTE.into_iter().chain([TaskType::PacketRx]) {
        assert!(counts.iter().any(|&(t, _)| t == task), "no {task:?} call was measured");
    }
    let allocating: Vec<_> = counts.iter().filter(|&&(_, n)| n > 0).collect();
    assert!(allocating.is_empty(), "allocating calls: {allocating:?}");
}
