//! Recycled packet buffers: the DPDK mempool substitute.
//!
//! The paper's fronthaul never allocates on the data path: DPDK hands the
//! NIC driver fixed-size mbufs from a preallocated pool and returns them
//! after processing. [`PacketPool`] reproduces that contract in safe-ish
//! Rust: one contiguous slab of `slots x slot_size` bytes, with a
//! lock-free free list of slot indices on [`agora_queue::MpmcQueue`].
//! Acquiring, filling and dropping a [`PooledPacket`] performs zero heap
//! allocations — the slot index just circulates through the ring.
//!
//! [`PacketBuf`] is the packet currency of the [`crate::Fronthaul`]
//! trait: either a heap-backed [`Bytes`] (tests, generators, duplicates)
//! or a pooled slot (steady-state RX/TX). Consumers only ever see `&[u8]`
//! through `Deref`, so the two representations are interchangeable.

use agora_queue::MpmcQueue;
use bytes::Bytes;
use core::cell::UnsafeCell;
use std::sync::Arc;

struct PoolShared {
    /// One contiguous slab of `slots * slot_size` bytes. Slot `i` owns
    /// bytes `[i * slot_size, (i + 1) * slot_size)` exclusively while
    /// checked out.
    slab: UnsafeCell<Box<[u8]>>,
    /// Free slot indices. Capacity >= `slots`, so returning a slot can
    /// never fail.
    free: MpmcQueue<u32>,
    slot_size: usize,
    slots: usize,
}

// SAFETY: the slab is only ever accessed through a checked-out
// `PooledPacket`, which holds its slot index exclusively (popped from the
// free list, pushed back only on drop). Distinct slots are disjoint byte
// ranges, so concurrent holders never alias; the MPMC queue's
// acquire/release pairs order a slot's release before its next acquire.
unsafe impl Send for PoolShared {}
unsafe impl Sync for PoolShared {}

/// A fixed-slab pool of recycled packet buffers (cheaply cloneable
/// handle; clones share the same slab).
#[derive(Clone)]
pub struct PacketPool {
    shared: Arc<PoolShared>,
}

impl PacketPool {
    /// Allocates a pool of `slots` buffers of `slot_size` bytes each.
    /// This is the only allocation the pool ever performs.
    pub fn new(slots: usize, slot_size: usize) -> PacketPool {
        assert!(slots > 0 && slot_size > 0, "pool must have non-empty slots");
        assert!(slots <= u32::MAX as usize, "slot index must fit u32");
        let free = MpmcQueue::new(slots);
        for i in 0..slots {
            free.push(i as u32).expect("free list sized for all slots");
        }
        PacketPool {
            shared: Arc::new(PoolShared {
                slab: UnsafeCell::new(vec![0u8; slots * slot_size].into_boxed_slice()),
                free,
                slot_size,
                slots,
            }),
        }
    }

    /// Checks a buffer out of the pool; `None` when every slot is in
    /// flight (callers fall back to heap buffers or retry).
    pub fn acquire(&self) -> Option<PooledPacket> {
        let slot = self.shared.free.pop()?;
        Some(PooledPacket { shared: self.shared.clone(), slot, len: 0 })
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.shared.slots
    }

    /// Bytes per slot.
    pub fn slot_size(&self) -> usize {
        self.shared.slot_size
    }

    /// Slots currently in the free list. Exact when the pool is
    /// quiescent; approximate under concurrent churn.
    pub fn available(&self) -> usize {
        self.shared.free.len().min(self.shared.slots)
    }
}

impl core::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PacketPool")
            .field("slots", &self.shared.slots)
            .field("slot_size", &self.shared.slot_size)
            .field("available", &self.available())
            .finish()
    }
}

/// An exclusively-owned slot of a [`PacketPool`]. Dereferences to the
/// `len` bytes written so far; returns its slot to the pool on drop.
pub struct PooledPacket {
    shared: Arc<PoolShared>,
    slot: u32,
    len: u32,
}

impl PooledPacket {
    /// Writable capacity of the slot.
    pub fn capacity(&self) -> usize {
        self.shared.slot_size
    }

    /// Valid (written) length.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no bytes have been marked valid.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks the first `len` bytes of the slot as valid packet data.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.shared.slot_size, "len {len} exceeds slot size");
        self.len = len as u32;
    }

    /// The full slot as a writable scratch buffer (e.g. a receive target
    /// or an encode destination). Call [`Self::set_len`] afterwards.
    pub fn buf_mut(&mut self) -> &mut [u8] {
        // SAFETY: this PooledPacket owns slot `self.slot` exclusively
        // (popped from the free list, not yet returned), `&mut self`
        // prevents aliasing through this handle, and distinct slots are
        // disjoint slab ranges.
        unsafe {
            let slab = (*self.shared.slab.get()).as_mut_ptr();
            core::slice::from_raw_parts_mut(
                slab.add(self.slot as usize * self.shared.slot_size),
                self.shared.slot_size,
            )
        }
    }

    /// Raw parts of the slot buffer for FFI receive paths: a pointer
    /// valid for `capacity()` writes while this packet is held.
    pub fn raw_parts_mut(&mut self) -> (*mut u8, usize) {
        let cap = self.capacity();
        (self.buf_mut().as_mut_ptr(), cap)
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: exclusive slot ownership as in `buf_mut`; shared
        // reborrows of the valid prefix cannot race because writers need
        // `&mut self`.
        unsafe {
            let slab = (*self.shared.slab.get()).as_ptr();
            core::slice::from_raw_parts(
                slab.add(self.slot as usize * self.shared.slot_size),
                self.len as usize,
            )
        }
    }
}

impl core::ops::Deref for PooledPacket {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PooledPacket {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl core::fmt::Debug for PooledPacket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PooledPacket").field("slot", &self.slot).field("len", &self.len).finish()
    }
}

impl Drop for PooledPacket {
    fn drop(&mut self) {
        // Only the `slots` indices handed out at construction circulate,
        // and the ring's capacity covers all of them, so the ring is
        // never truly full — but a push reports "full" while a
        // concurrent `acquire` has claimed the cell one lap behind and
        // not yet released it. That clears within the other thread's
        // pop; giving up instead would leak the slot.
        let mut slot = self.slot;
        while let Err(back) = self.shared.free.push(slot) {
            slot = back;
            std::hint::spin_loop();
        }
    }
}

/// A packet in flight: heap-backed or pool-backed, uniformly `&[u8]`.
#[derive(Debug)]
pub enum PacketBuf {
    /// Reference-counted heap buffer.
    Heap(Bytes),
    /// Checked-out pool slot (returned on drop).
    Pooled(PooledPacket),
}

impl PacketBuf {
    /// The packet bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            PacketBuf::Heap(b) => b,
            PacketBuf::Pooled(p) => p,
        }
    }

    /// Converts to [`Bytes`]: free for heap packets, one copy for pooled
    /// packets (which releases the slot).
    pub fn into_bytes(self) -> Bytes {
        match self {
            PacketBuf::Heap(b) => b,
            PacketBuf::Pooled(p) => Bytes::copy_from_slice(&p),
        }
    }
}

impl Clone for PacketBuf {
    /// Heap packets clone by reference count; pooled packets deep-copy to
    /// the heap (cloning is the rare path — fault-injected duplicates).
    fn clone(&self) -> PacketBuf {
        match self {
            PacketBuf::Heap(b) => PacketBuf::Heap(b.clone()),
            PacketBuf::Pooled(p) => PacketBuf::Heap(Bytes::copy_from_slice(p)),
        }
    }
}

impl core::ops::Deref for PacketBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Bytes> for PacketBuf {
    fn from(b: Bytes) -> PacketBuf {
        PacketBuf::Heap(b)
    }
}

impl From<Vec<u8>> for PacketBuf {
    fn from(v: Vec<u8>) -> PacketBuf {
        PacketBuf::Heap(Bytes::from(v))
    }
}

impl From<PooledPacket> for PacketBuf {
    fn from(p: PooledPacket) -> PacketBuf {
        PacketBuf::Pooled(p)
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &PacketBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for PacketBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_write_read_roundtrip() {
        let pool = PacketPool::new(4, 128);
        let mut p = pool.acquire().unwrap();
        assert_eq!(p.capacity(), 128);
        p.buf_mut()[..5].copy_from_slice(b"agora");
        p.set_len(5);
        assert_eq!(&p[..], b"agora");
        assert_eq!(pool.available(), 3);
        drop(p);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn exhaustion_returns_none_until_release() {
        let pool = PacketPool::new(2, 16);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert!(pool.acquire().is_none(), "exhausted pool must refuse");
        drop(a);
        assert!(pool.acquire().is_some());
        drop(b);
    }

    #[test]
    fn slots_are_disjoint() {
        let pool = PacketPool::new(3, 8);
        let mut held: Vec<PooledPacket> = (0..3).map(|_| pool.acquire().unwrap()).collect();
        for (i, p) in held.iter_mut().enumerate() {
            p.buf_mut().fill(i as u8 + 1);
            p.set_len(8);
        }
        for (i, p) in held.iter().enumerate() {
            assert!(p.iter().all(|&b| b == i as u8 + 1), "slot {i} corrupted by a neighbour");
        }
    }

    #[test]
    fn recycling_is_allocation_free_in_shape() {
        // Churn far more packets than slots: the same indices circulate.
        let pool = PacketPool::new(2, 32);
        for i in 0..1000u32 {
            let mut p = pool.acquire().unwrap();
            p.buf_mut()[..4].copy_from_slice(&i.to_le_bytes());
            p.set_len(4);
            assert_eq!(u32::from_le_bytes(p[..4].try_into().unwrap()), i);
        }
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn packet_buf_unifies_heap_and_pooled() {
        let pool = PacketPool::new(1, 16);
        let mut p = pool.acquire().unwrap();
        p.buf_mut()[..3].copy_from_slice(&[1, 2, 3]);
        p.set_len(3);
        let pooled = PacketBuf::from(p);
        let heap = PacketBuf::from(vec![1u8, 2, 3]);
        assert_eq!(pooled, heap);
        assert!(matches!(pooled, PacketBuf::Pooled(_)) && matches!(heap, PacketBuf::Heap(_)));
        // Cloning a pooled packet lands on the heap (slot not duplicated).
        let dup = pooled.clone();
        assert!(matches!(dup, PacketBuf::Heap(_)));
        assert_eq!(dup, pooled);
        // into_bytes releases the slot.
        let b = pooled.into_bytes();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn cross_thread_churn_loses_no_slots() {
        let pool = PacketPool::new(8, 64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..2000 {
                        if let Some(mut p) = pool.acquire() {
                            p.buf_mut()[0] = (t + i) as u8;
                            p.set_len(1);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(pool.available(), 8, "every slot must return to the free list");
    }
}
