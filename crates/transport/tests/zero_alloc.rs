//! Steady-state intake must not allocate: with a `PacketPool` attached,
//! the batched UDP receive path recycles fixed slab slots and the send
//! path works out of caller-owned buffers, so after warm-up a
//! send/receive/drop cycle performs zero heap allocations. A counting
//! global allocator makes that claim checkable.

use agora_fronthaul::{
    encode, Fronthaul, PacketBuf, PacketDir, PacketHeader, PacketPool, UdpFronthaul,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::net::SocketAddr;

thread_local! {
    /// Allocations made by *this* thread: the harness runs tests (and
    /// spawns their threads) in parallel, so a process-wide count would
    /// charge one test's measured window with another thread's work.
    /// Const-initialised and destructor-free, so touching it from the
    /// allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator can be called while TLS is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// System allocator with an allocation counter (deallocations are free:
/// only new heap blocks betray a copy).
struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a thread-local cell with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_pooled_udp_cycle_is_allocation_free() {
    const BURST: usize = 16;
    const WARMUP: usize = 8;
    const MEASURED: usize = 64;

    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut tx = UdpFronthaul::new(any, any).unwrap();
    let rx = UdpFronthaul::new(any, tx.local_addr().unwrap())
        .unwrap()
        .with_pool(PacketPool::new(64, 2048));
    tx.set_peer(rx.local_addr().unwrap());

    // Pre-encoded template packets; cloning `Bytes` bumps a refcount.
    let template: Vec<PacketBuf> = (0..BURST)
        .map(|i| {
            let payload = vec![i as u8; 384];
            PacketBuf::from(encode(
                &PacketHeader {
                    frame: i as u32,
                    symbol: 0,
                    antenna: i as u16,
                    dir: PacketDir::Uplink,
                    cell: 0,
                    payload_len: payload.len() as u32,
                },
                &payload,
            ))
        })
        .collect();

    let mut outgoing: VecDeque<PacketBuf> = VecDeque::with_capacity(BURST);
    let mut got: Vec<PacketBuf> = Vec::with_capacity(BURST);
    let cycle = |outgoing: &mut VecDeque<PacketBuf>, got: &mut Vec<PacketBuf>| {
        for pkt in &template {
            outgoing.push_back(pkt.clone());
        }
        while !outgoing.is_empty() {
            if tx.send_batch(outgoing) == 0 {
                std::thread::yield_now();
            }
        }
        for _ in 0..1_000_000 {
            let want = BURST - got.len();
            rx.recv_batch(got, want);
            if got.len() == BURST {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got.len(), BURST, "loopback burst must arrive whole");
        // Dropping the pooled packets hands their slots straight back.
        got.clear();
    };

    for _ in 0..WARMUP {
        cycle(&mut outgoing, &mut got);
    }
    let before = allocations();
    for _ in 0..MEASURED {
        cycle(&mut outgoing, &mut got);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state batched+pooled intake must be allocation-free \
         ({MEASURED} cycles performed {} allocations)",
        after - before
    );
    assert_eq!(rx.link_errors(), (0, 0));
}

#[test]
fn steady_state_aggregated_pooled_cycle_is_allocation_free() {
    const BURST: usize = 16;
    const WARMUP: usize = 8;
    const MEASURED: usize = 64;

    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut tx = UdpFronthaul::new(any, any).unwrap().with_aggregation(8);
    let rx = UdpFronthaul::new(any, tx.local_addr().unwrap())
        .unwrap()
        .with_aggregation(8)
        .with_pool(PacketPool::new(64, 2048));
    tx.set_peer(rx.local_addr().unwrap());

    let template: Vec<PacketBuf> = (0..BURST)
        .map(|i| {
            let payload = vec![i as u8; 384];
            PacketBuf::from(encode(
                &PacketHeader {
                    frame: i as u32,
                    symbol: 0,
                    antenna: i as u16,
                    dir: PacketDir::Uplink,
                    cell: 0,
                    payload_len: payload.len() as u32,
                },
                &payload,
            ))
        })
        .collect();

    let mut outgoing: VecDeque<PacketBuf> = VecDeque::with_capacity(BURST);
    let mut got: Vec<PacketBuf> = Vec::with_capacity(BURST);
    // Warm-up grows the endpoint's reused jumbo build/receive scratch
    // once; after that a cycle is coalesce -> one datagram per 8
    // packets -> split into recycled pool slots, all allocation-free.
    let cycle = |outgoing: &mut VecDeque<PacketBuf>, got: &mut Vec<PacketBuf>| {
        for pkt in &template {
            outgoing.push_back(pkt.clone());
        }
        while !outgoing.is_empty() {
            if tx.send_batch(outgoing) == 0 {
                std::thread::yield_now();
            }
        }
        for _ in 0..1_000_000 {
            let want = BURST - got.len();
            rx.recv_batch(got, want);
            if got.len() == BURST {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got.len(), BURST, "loopback burst must arrive whole");
        got.clear();
    };

    for _ in 0..WARMUP {
        cycle(&mut outgoing, &mut got);
    }
    let before = allocations();
    for _ in 0..MEASURED {
        cycle(&mut outgoing, &mut got);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state aggregated+pooled intake must be allocation-free \
         ({MEASURED} cycles performed {} allocations)",
        after - before
    );
    assert_eq!(rx.link_errors(), (0, 0));
}
