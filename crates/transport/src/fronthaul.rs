//! Fronthaul transports.
//!
//! The paper moves IQ samples between the RRU and the baseband server
//! over 40 GbE with DPDK kernel-bypass: batched bursts of preallocated
//! mbufs, zero syscalls and zero allocations per packet. This module
//! abstracts the link behind the [`Fronthaul`] trait and reproduces the
//! two DPDK properties separately:
//!
//! * [`MemFronthaul`] — lock-free in-memory rings. This is the
//!   zero-syscall substitute (DESIGN.md §3): packets appear in user
//!   space with sub-microsecond overhead, preserving the property that
//!   network I/O never blocks the data path.
//! * [`UdpFronthaul`] — real (non-blocking) UDP sockets. The batched
//!   [`Fronthaul::send_batch`]/[`Fronthaul::recv_batch`] path uses
//!   `sendmmsg`/`recvmmsg` ([`crate::sys`]) to amortise the syscall and
//!   a [`PacketPool`] to recycle receive buffers, which is as close to
//!   burst I/O as a kernel socket gets. Real socket errors are counted
//!   (`tx_errors`/`rx_errors`), never silently swallowed.
//!
//! Packets travel as [`PacketBuf`] — heap bytes or pooled slots,
//! uniformly `&[u8]` — so every implementation composes with the pool.

use crate::pool::{PacketBuf, PacketPool, PooledPacket};
use crate::sys;
use agora_queue::MpmcQueue;
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A bidirectional packet link endpoint.
///
/// Implementations must be cheap to share across the network threads;
/// sends and receives never block. The batched entry points have
/// sequential default implementations, so in-memory and fault-wrapped
/// links compose with batching callers unchanged.
pub trait Fronthaul: Send + Sync {
    /// Enqueues a packet for the peer. On backpressure the packet is
    /// handed back (`Err`) so callers can retry without copying; a
    /// packet accepted (`Ok`) may still be dropped downstream, as on a
    /// real NIC.
    fn send(&self, packet: PacketBuf) -> Result<(), PacketBuf>;

    /// Dequeues a packet from the peer, if any.
    fn recv(&self) -> Option<PacketBuf>;

    /// Sends the front of `packets` until the link backpressures,
    /// removing sent packets from the deque; returns how many were
    /// sent. Unsent packets stay queued, front first, for retry.
    fn send_batch(&self, packets: &mut VecDeque<PacketBuf>) -> usize {
        let mut sent = 0;
        while let Some(pkt) = packets.pop_front() {
            match self.send(pkt) {
                Ok(()) => sent += 1,
                Err(back) => {
                    packets.push_front(back);
                    break;
                }
            }
        }
        sent
    }

    /// Appends up to `max` pending packets to `out`; returns how many
    /// arrived. `0` means the link is currently empty, not closed.
    fn recv_batch(&self, out: &mut Vec<PacketBuf>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.recv() {
                Some(p) => {
                    out.push(p);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Cumulative real link errors as `(tx_errors, rx_errors)` — socket
    /// failures that consumed or corrupted a packet (not backpressure).
    fn link_errors(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// One side of an in-memory fronthaul link.
pub struct MemFronthaul {
    tx: Arc<MpmcQueue<PacketBuf>>,
    rx: Arc<MpmcQueue<PacketBuf>>,
}

impl MemFronthaul {
    /// Creates a connected pair `(rru_side, bbu_side)` with the given
    /// per-direction capacity (packets).
    pub fn pair(capacity: usize) -> (MemFronthaul, MemFronthaul) {
        let a = Arc::new(MpmcQueue::new(capacity));
        let b = Arc::new(MpmcQueue::new(capacity));
        (MemFronthaul { tx: a.clone(), rx: b.clone() }, MemFronthaul { tx: b, rx: a })
    }

    /// The receiving side of a link that already holds `packets`, in
    /// order: a recorded stream an engine drains as it would a live one.
    pub fn preloaded(packets: &[Bytes]) -> MemFronthaul {
        let (tx, rx) = MemFronthaul::pair(packets.len());
        for pkt in packets {
            assert!(tx.send(PacketBuf::Heap(pkt.clone())).is_ok(), "the link holds every packet");
        }
        rx
    }

    /// Packets waiting to be received on this side (diagnostics).
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

impl Fronthaul for MemFronthaul {
    fn send(&self, packet: PacketBuf) -> Result<(), PacketBuf> {
        self.tx.push(packet)
    }

    fn recv(&self) -> Option<PacketBuf> {
        self.rx.pop()
    }
}

/// Magic word leading an aggregated datagram; distinct from the
/// per-packet magic so plain and aggregated datagrams interoperate on
/// one socket.
const AGG_MAGIC: u32 = 0x4147_4752;
/// Aggregated datagram header: `[magic u32][count u16][pad u16]`,
/// followed by `count` x `[len u32][len bytes]`.
const AGG_HEADER_LEN: usize = 8;
/// Largest UDP payload over IPv4.
const MAX_DATAGRAM: usize = 65_507;

/// UDP-socket fronthaul endpoint (non-blocking).
///
/// With a [`PacketPool`] attached ([`Self::with_pool`]), receives land
/// in recycled slots instead of fresh heap buffers; with the Linux
/// `mmsg` syscalls available, `send_batch`/`recv_batch` move up to
/// [`sys::MAX_BATCH`] datagrams per syscall. Both degrade gracefully:
/// no pool falls back to heap buffers, no `mmsg` (non-Linux, seccomp,
/// IPv6 peer) falls back to the one-datagram syscall loop.
///
/// [`Self::with_aggregation`] additionally coalesces `send_batch`
/// bursts into jumbo datagrams — per-datagram kernel cost (not the
/// syscall boundary) dominates UDP, so symbol-sized transfers are what
/// actually buy line rate.
pub struct UdpFronthaul {
    socket: UdpSocket,
    peer: SocketAddr,
    /// Receive scratch sized for jumbo frames.
    mtu: usize,
    /// Recycled receive buffers (heap fallback when absent/exhausted).
    pool: Option<PacketPool>,
    /// Pooled buffers staged for the next batched receive. Acquired
    /// slots that a `recvmmsg` round leaves unfilled are kept here for
    /// the next round rather than bounced back to the pool.
    rx_staged: Mutex<Vec<PooledPacket>>,
    /// Real send failures (not backpressure): the datagram was dropped.
    tx_errors: AtomicU64,
    /// Real receive failures: a poll was aborted by a socket error.
    rx_errors: AtomicU64,
    /// Whether the batched syscalls are believed available; cleared on
    /// the first `ENOSYS`/`EPERM`/`Unsupported` so later batches go
    /// straight to the portable loop.
    mmsg_ok: AtomicBool,
    /// Packets coalesced per datagram by `send_batch` (0 = off). Both
    /// endpoints of a link must agree: the receive path only splits
    /// aggregated datagrams when this is non-zero.
    aggregate: usize,
    /// Reused jumbo build buffer for aggregated sends.
    tx_jumbo: Mutex<Vec<u8>>,
    /// Reused jumbo receive scratch for aggregated receives.
    rx_jumbo: Mutex<Vec<u8>>,
    /// Split-out packets an aggregated receive could not hand to its
    /// caller (a datagram can carry more packets than `max`); drained
    /// ahead of the socket on the next receive.
    rx_split: Mutex<VecDeque<PacketBuf>>,
}

impl UdpFronthaul {
    /// Binds `local` and targets `peer`. Uses non-blocking I/O; callers
    /// poll like they poll the in-memory rings.
    pub fn new(local: SocketAddr, peer: SocketAddr) -> std::io::Result<UdpFronthaul> {
        let socket = UdpSocket::bind(local)?;
        socket.set_nonblocking(true)?;
        Ok(UdpFronthaul {
            socket,
            peer,
            mtu: 9000,
            pool: None,
            rx_staged: Mutex::new(Vec::new()),
            tx_errors: AtomicU64::new(0),
            rx_errors: AtomicU64::new(0),
            mmsg_ok: AtomicBool::new(cfg!(target_os = "linux")),
            aggregate: 0,
            tx_jumbo: Mutex::new(Vec::new()),
            rx_jumbo: Mutex::new(Vec::new()),
            rx_split: Mutex::new(VecDeque::new()),
        })
    }

    /// Attaches a buffer pool for allocation-free receives. Slots
    /// shorter than the link MTU cap the receivable datagram size
    /// (longer datagrams are truncated, as `recv(2)` does).
    pub fn with_pool(mut self, pool: PacketPool) -> UdpFronthaul {
        assert!(pool.slot_size() >= crate::packet::HEADER_LEN, "pool slots below header size");
        self.rx_staged = Mutex::new(Vec::with_capacity(sys::MAX_BATCH));
        self.pool = Some(pool);
        self
    }

    /// Coalesces up to `packets_per_datagram` fronthaul packets into
    /// one UDP datagram on `send_batch` and splits them back out on the
    /// receive side. Both endpoints of a link must opt in. Plain
    /// single-packet `send`s still interoperate: the receive path
    /// recognises aggregated datagrams by their magic word.
    pub fn with_aggregation(mut self, packets_per_datagram: usize) -> UdpFronthaul {
        assert!(packets_per_datagram >= 1, "aggregation factor must be at least 1");
        self.aggregate = packets_per_datagram;
        self
    }

    /// The locally bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Re-targets the peer (e.g. after learning the generator's port).
    pub fn set_peer(&mut self, peer: SocketAddr) {
        self.peer = peer;
    }

    /// Real send errors so far (dropped datagrams, not backpressure).
    pub fn tx_errors(&self) -> u64 {
        self.tx_errors.load(Relaxed)
    }

    /// Real receive errors so far.
    pub fn rx_errors(&self) -> u64 {
        self.rx_errors.load(Relaxed)
    }

    fn send_one(&self, packet: PacketBuf) -> Result<(), PacketBuf> {
        match self.socket.send_to(&packet, self.peer) {
            Ok(n) => {
                if n != packet.len() {
                    // A truncated datagram send is a real fault worth
                    // surfacing, not a retry condition.
                    self.tx_errors.fetch_add(1, Relaxed);
                }
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Err(packet),
            Err(_) => {
                // The packet is gone, like a NIC drop — but counted.
                self.tx_errors.fetch_add(1, Relaxed);
                Ok(())
            }
        }
    }

    fn recv_one(&self) -> Option<PacketBuf> {
        if let Some(pool) = &self.pool {
            if let Some(mut pkt) = pool.acquire() {
                return match self.socket.recv_from(pkt.buf_mut()) {
                    Ok((n, _src)) => {
                        pkt.set_len(n);
                        Some(PacketBuf::Pooled(pkt))
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                    Err(_) => {
                        self.rx_errors.fetch_add(1, Relaxed);
                        None
                    }
                };
            }
            // Pool exhausted: fall through to a heap buffer so intake
            // keeps making progress.
        }
        let mut buf = vec![0u8; self.mtu];
        match self.socket.recv_from(&mut buf) {
            Ok((n, _src)) => {
                buf.truncate(n);
                Some(PacketBuf::from(buf))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => None,
            Err(_) => {
                self.rx_errors.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// One `recvmmsg` round into staged pooled slots (or heap buffers
    /// when no pool slot is available). Returns packets appended.
    fn recv_batch_mmsg(&self, out: &mut Vec<PacketBuf>, want: usize) -> std::io::Result<usize> {
        let mut staged = self.rx_staged.lock().expect("rx scratch poisoned");
        if let Some(pool) = &self.pool {
            while staged.len() < want {
                match pool.acquire() {
                    Some(p) => staged.push(p),
                    None => break,
                }
            }
        }
        let mut slots = [sys::RecvSlot::EMPTY; sys::MAX_BATCH];
        if !staged.is_empty() {
            let n_bufs = staged.len().min(want);
            for (slot, pkt) in slots.iter_mut().zip(staged.iter_mut().take(n_bufs)) {
                let (ptr, cap) = pkt.raw_parts_mut();
                *slot = sys::RecvSlot { ptr, cap, len: 0 };
            }
            // The raw pointers stay valid across the syscall: each slot
            // is exclusively owned by a PooledPacket held in `staged`
            // under the lock for the whole call.
            let got = match sys::recv_batch(&self.socket, &mut slots[..n_bufs]) {
                Ok(g) => g,
                Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
                Err(e) => return Err(e),
            };
            for (slot, mut pkt) in slots.iter().zip(staged.drain(..got)) {
                pkt.set_len(slot.len);
                out.push(PacketBuf::Pooled(pkt));
            }
            return Ok(got);
        }
        // No pool (or fully exhausted): heap buffers, still one syscall.
        let mut bufs: Vec<Vec<u8>> = (0..want).map(|_| vec![0u8; self.mtu]).collect();
        for (slot, buf) in slots.iter_mut().zip(bufs.iter_mut()) {
            *slot = sys::RecvSlot { ptr: buf.as_mut_ptr(), cap: buf.len(), len: 0 };
        }
        let got = match sys::recv_batch(&self.socket, &mut slots[..want]) {
            Ok(g) => g,
            Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
            Err(e) => return Err(e),
        };
        for (slot, mut buf) in slots.iter().zip(bufs.drain(..got)) {
            buf.truncate(slot.len);
            out.push(PacketBuf::from(buf));
        }
        Ok(got)
    }

    /// Lands one packet's bytes in a pool slot when one is available
    /// and large enough, else in a fresh heap buffer.
    fn intake_copy(&self, bytes: &[u8]) -> PacketBuf {
        if let Some(pool) = &self.pool {
            if bytes.len() <= pool.slot_size() {
                if let Some(mut slot) = pool.acquire() {
                    slot.buf_mut()[..bytes.len()].copy_from_slice(bytes);
                    slot.set_len(bytes.len());
                    return PacketBuf::Pooled(slot);
                }
            }
        }
        PacketBuf::from(bytes.to_vec())
    }

    /// Sends the queue as aggregated jumbo datagrams. Packets leave the
    /// queue only once the socket accepts their datagram, so
    /// backpressure (`WouldBlock`) keeps them intact for the caller's
    /// next round; a real send error sheds the datagram's packets and
    /// counts one `tx_error`, matching the single-datagram path.
    fn send_batch_aggregated(&self, packets: &mut VecDeque<PacketBuf>) -> usize {
        let mut jumbo = self.tx_jumbo.lock().expect("tx scratch poisoned");
        let mut sent = 0;
        while !packets.is_empty() {
            jumbo.clear();
            jumbo.extend_from_slice(&AGG_MAGIC.to_le_bytes());
            jumbo.extend_from_slice(&[0u8; 4]); // count + pad, patched below
            let mut count = 0usize;
            for pkt in packets.iter() {
                if count >= self.aggregate || jumbo.len() + 4 + pkt.len() > MAX_DATAGRAM {
                    break;
                }
                jumbo.extend_from_slice(&(pkt.len() as u32).to_le_bytes());
                jumbo.extend_from_slice(&pkt[..]);
                count += 1;
            }
            if count == 0 {
                // A packet too large for any datagram can never leave.
                self.tx_errors.fetch_add(1, Relaxed);
                packets.pop_front();
                continue;
            }
            jumbo[4..6].copy_from_slice(&(count as u16).to_le_bytes());
            match self.socket.send_to(&jumbo, self.peer) {
                Ok(_) => {
                    packets.drain(..count);
                    sent += count;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.tx_errors.fetch_add(1, Relaxed);
                    packets.drain(..count);
                    break;
                }
            }
        }
        sent
    }

    /// Receives datagrams into the reused jumbo scratch and splits them
    /// into individual packets (pool slots when available). Staged
    /// leftovers from earlier over-full datagrams are drained first;
    /// new ones past `max` are staged for the next call.
    fn recv_batch_aggregated(&self, out: &mut Vec<PacketBuf>, max: usize) -> usize {
        let mut n = 0;
        {
            let mut split = self.rx_split.lock().expect("rx split queue poisoned");
            while n < max {
                match split.pop_front() {
                    Some(p) => {
                        out.push(p);
                        n += 1;
                    }
                    None => break,
                }
            }
        }
        let mut scratch = self.rx_jumbo.lock().expect("rx scratch poisoned");
        if scratch.len() < MAX_DATAGRAM {
            scratch.resize(MAX_DATAGRAM, 0);
        }
        while n < max {
            let got = match self.socket.recv_from(scratch.as_mut_slice()) {
                Ok((g, _src)) => g,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.rx_errors.fetch_add(1, Relaxed);
                    break;
                }
            };
            let dgram = &scratch[..got];
            if dgram.len() >= AGG_HEADER_LEN && dgram[..4] == AGG_MAGIC.to_le_bytes() {
                let count = u16::from_le_bytes([dgram[4], dgram[5]]) as usize;
                let mut off = AGG_HEADER_LEN;
                for _ in 0..count {
                    let Some(len_bytes) = dgram.get(off..off + 4) else {
                        // Truncated mid-frame: count the mangled
                        // datagram once and move on.
                        self.rx_errors.fetch_add(1, Relaxed);
                        break;
                    };
                    let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
                    off += 4;
                    let Some(body) = dgram.get(off..off + len) else {
                        self.rx_errors.fetch_add(1, Relaxed);
                        break;
                    };
                    off += len;
                    let pkt = self.intake_copy(body);
                    if n < max {
                        out.push(pkt);
                        n += 1;
                    } else {
                        self.rx_split.lock().expect("rx split queue poisoned").push_back(pkt);
                    }
                }
            } else {
                // A plain datagram from an un-aggregated sender.
                out.push(self.intake_copy(dgram));
                n += 1;
            }
        }
        n
    }
}

impl Fronthaul for UdpFronthaul {
    fn send(&self, packet: PacketBuf) -> Result<(), PacketBuf> {
        self.send_one(packet)
    }

    fn recv(&self) -> Option<PacketBuf> {
        if self.aggregate > 0 {
            if let Some(p) = self.rx_split.lock().expect("rx split queue poisoned").pop_front() {
                return Some(p);
            }
            let mut one = Vec::with_capacity(1);
            self.recv_batch_aggregated(&mut one, 1);
            return one.pop();
        }
        self.recv_one()
    }

    fn send_batch(&self, packets: &mut VecDeque<PacketBuf>) -> usize {
        if packets.is_empty() {
            return 0;
        }
        if self.aggregate > 1 {
            return self.send_batch_aggregated(packets);
        }
        if self.mmsg_ok.load(Relaxed) && matches!(self.peer, SocketAddr::V4(_)) {
            let n = packets.len().min(sys::MAX_BATCH);
            let mut refs: [&[u8]; sys::MAX_BATCH] = [&[]; sys::MAX_BATCH];
            for (slot, pkt) in refs.iter_mut().zip(packets.iter().take(n)) {
                *slot = pkt;
            }
            match sys::send_batch(&self.socket, self.peer, &refs[..n]) {
                Ok(sent) => {
                    packets.drain(..sent);
                    return sent;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return 0,
                Err(e) if sys::batch_unsupported(&e) => {
                    self.mmsg_ok.store(false, Relaxed);
                    // fall through to the sequential path below
                }
                Err(_) => {
                    // The head datagram failed for a real reason: count
                    // it, drop it, let the rest retry next round.
                    self.tx_errors.fetch_add(1, Relaxed);
                    packets.pop_front();
                    return 0;
                }
            }
        }
        let mut sent = 0;
        while let Some(pkt) = packets.pop_front() {
            match self.send_one(pkt) {
                Ok(()) => sent += 1,
                Err(back) => {
                    packets.push_front(back);
                    break;
                }
            }
        }
        sent
    }

    fn recv_batch(&self, out: &mut Vec<PacketBuf>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        if self.aggregate > 0 {
            return self.recv_batch_aggregated(out, max);
        }
        if self.mmsg_ok.load(Relaxed) {
            match self.recv_batch_mmsg(out, max.min(sys::MAX_BATCH)) {
                Ok(n) => return n,
                Err(e) if sys::batch_unsupported(&e) => self.mmsg_ok.store(false, Relaxed),
                Err(_) => {
                    self.rx_errors.fetch_add(1, Relaxed);
                    return 0;
                }
            }
        }
        let mut n = 0;
        while n < max {
            match self.recv_one() {
                Some(p) => {
                    out.push(p);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    fn link_errors(&self) -> (u64, u64) {
        (self.tx_errors(), self.rx_errors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{decode_ref, encode, PacketDir, PacketHeader};

    fn test_packet(frame: u32) -> PacketBuf {
        PacketBuf::from(encode(
            &PacketHeader {
                frame,
                symbol: 0,
                antenna: 0,
                dir: PacketDir::Uplink,
                cell: 0,
                payload_len: 4,
            },
            &[1, 2, 3, 4],
        ))
    }

    fn udp_pair() -> (UdpFronthaul, UdpFronthaul) {
        let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut a = UdpFronthaul::new(any, any).unwrap();
        let b = UdpFronthaul::new(any, a.local_addr().unwrap()).unwrap();
        a.set_peer(b.local_addr().unwrap());
        (a, b)
    }

    /// Polls `recv_batch` until `n` packets arrive (loopback is fast but
    /// asynchronous) or the spin budget runs out.
    fn recv_n(fh: &impl Fronthaul, n: usize) -> Vec<PacketBuf> {
        let mut got = Vec::with_capacity(n);
        for _ in 0..100_000 {
            let want = n - got.len();
            fh.recv_batch(&mut got, want);
            if got.len() == n {
                break;
            }
            std::thread::yield_now();
        }
        got
    }

    #[test]
    fn mem_pair_delivers_both_directions() {
        let (rru, bbu) = MemFronthaul::pair(16);
        assert!(rru.send(test_packet(1)).is_ok());
        assert!(bbu.send(test_packet(2)).is_ok());
        let at_bbu = bbu.recv().unwrap();
        let at_rru = rru.recv().unwrap();
        assert_eq!(decode_ref(&at_bbu).unwrap().0.frame, 1);
        assert_eq!(decode_ref(&at_rru).unwrap().0.frame, 2);
        assert!(bbu.recv().is_none());
    }

    #[test]
    fn mem_backpressure_returns_packet() {
        let (rru, _bbu) = MemFronthaul::pair(2);
        assert!(rru.send(test_packet(0)).is_ok());
        assert!(rru.send(test_packet(1)).is_ok());
        let back = rru.send(test_packet(2)).expect_err("third send must be refused");
        assert_eq!(decode_ref(&back).unwrap().0.frame, 2, "refused packet handed back intact");
    }

    #[test]
    fn mem_preserves_order() {
        let (rru, bbu) = MemFronthaul::pair(64);
        for f in 0..50 {
            rru.send(test_packet(f)).unwrap();
        }
        for f in 0..50 {
            let p = bbu.recv().unwrap();
            assert_eq!(decode_ref(&p).unwrap().0.frame, f);
        }
    }

    #[test]
    fn mem_batch_roundtrip_preserves_order() {
        let (rru, bbu) = MemFronthaul::pair(64);
        let mut outgoing: VecDeque<PacketBuf> = (0..20).map(test_packet).collect();
        assert_eq!(rru.send_batch(&mut outgoing), 20);
        assert!(outgoing.is_empty());
        let mut got = Vec::new();
        assert_eq!(bbu.recv_batch(&mut got, 64), 20);
        for (f, p) in got.iter().enumerate() {
            assert_eq!(decode_ref(p).unwrap().0.frame, f as u32);
        }
    }

    #[test]
    fn mem_send_batch_stops_at_backpressure() {
        let (rru, _bbu) = MemFronthaul::pair(4);
        let mut outgoing: VecDeque<PacketBuf> = (0..10).map(test_packet).collect();
        let sent = rru.send_batch(&mut outgoing);
        assert_eq!(sent, 4, "ring capacity bounds the batch");
        assert_eq!(outgoing.len(), 6, "unsent packets stay queued");
        // The head of the remainder is the first unsent packet.
        assert_eq!(decode_ref(&outgoing[0]).unwrap().0.frame, 4);
    }

    #[test]
    fn udp_loopback_roundtrip() {
        let (a, b) = udp_pair();
        assert!(a.send(test_packet(7)).is_ok());
        let got = recv_n(&b, 1);
        assert_eq!(decode_ref(&got[0]).unwrap().0.frame, 7);
        // And the reverse direction.
        assert!(b.send(test_packet(8)).is_ok());
        let got = recv_n(&a, 1);
        assert_eq!(decode_ref(&got[0]).unwrap().0.frame, 8);
    }

    #[test]
    fn udp_batch_roundtrip_preserves_order_and_content() {
        let (a, b) = udp_pair();
        let mut outgoing: VecDeque<PacketBuf> = (0..40).map(test_packet).collect();
        while !outgoing.is_empty() {
            if a.send_batch(&mut outgoing) == 0 {
                std::thread::yield_now();
            }
        }
        let got = recv_n(&b, 40);
        assert_eq!(got.len(), 40, "loopback should deliver the whole batch");
        for (f, p) in got.iter().enumerate() {
            assert_eq!(decode_ref(p).unwrap().0.frame, f as u32, "order preserved on loopback");
        }
        assert_eq!(a.link_errors(), (0, 0));
        assert_eq!(b.link_errors(), (0, 0));
    }

    #[test]
    fn udp_aggregated_roundtrip_preserves_order_and_bytes() {
        let (a, b) = udp_pair();
        let a = a.with_aggregation(8);
        let b = b.with_aggregation(8).with_pool(PacketPool::new(16, 2048));
        let reference: Vec<PacketBuf> = (0..30).map(test_packet).collect();
        let mut outgoing: VecDeque<PacketBuf> = reference.iter().cloned().collect();
        while !outgoing.is_empty() {
            if a.send_batch(&mut outgoing) == 0 {
                std::thread::yield_now();
            }
        }
        let got = recv_n(&b, 30);
        assert_eq!(got.len(), 30, "loopback should deliver every aggregated packet");
        for (want, have) in reference.iter().zip(&got) {
            assert_eq!(&want[..], &have[..], "split packets must be byte-identical");
        }
        // 30 packets at factor 8 ride in ceil(30/8) = 4 datagrams whose
        // splits exceed a small `max`: leftovers must stage, not drop.
        let mut outgoing: VecDeque<PacketBuf> = reference.iter().cloned().collect();
        while !outgoing.is_empty() {
            if a.send_batch(&mut outgoing) == 0 {
                std::thread::yield_now();
            }
        }
        let mut trickle = Vec::new();
        for _ in 0..100_000 {
            let want = 3.min(30 - trickle.len());
            b.recv_batch(&mut trickle, want);
            if trickle.len() == 30 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(trickle.len(), 30, "staged leftovers drain across small-max calls");
        for (want, have) in reference.iter().zip(&trickle) {
            assert_eq!(&want[..], &have[..]);
        }
        assert_eq!(a.link_errors(), (0, 0));
        assert_eq!(b.link_errors(), (0, 0));
    }

    /// 48 packets of 64 to 383 bytes as jumbo datagrams of 16 into a pool
    /// that holds them all: split byte for byte, every one in a pool slot,
    /// and every slot back once they and the endpoint are dropped.
    #[test]
    fn udp_aggregated_receives_land_in_pool_slots_and_return() {
        let reference: Vec<PacketBuf> = (0..48)
            .map(|i| {
                let payload: Vec<u8> = (0..64 + (i * 7) % 320).map(|b| (b ^ i) as u8).collect();
                let header = PacketHeader {
                    frame: (i / 8) as u32,
                    symbol: (i % 8) as u16,
                    antenna: i as u16,
                    dir: PacketDir::Uplink,
                    cell: 0,
                    payload_len: payload.len() as u32,
                };
                PacketBuf::from(encode(&header, &payload))
            })
            .collect();
        let pool = PacketPool::new(64, 2048);
        let (tx, rx) = udp_pair();
        let (tx, rx) = (tx.with_aggregation(16), rx.with_aggregation(16).with_pool(pool.clone()));
        let mut outgoing: VecDeque<PacketBuf> = reference.iter().cloned().collect();
        while !outgoing.is_empty() {
            if tx.send_batch(&mut outgoing) == 0 {
                std::thread::yield_now();
            }
        }
        let got = recv_n(&rx, reference.len());
        assert!(
            reference.len() == got.len() && reference.iter().zip(&got).all(|(a, b)| a[..] == b[..])
        );
        assert!(got.iter().all(|p| matches!(p, PacketBuf::Pooled(_))), "in pool slots");
        drop((got, rx));
        assert_eq!(pool.available(), pool.capacity(), "every pool slot returned");
    }

    #[test]
    fn udp_aggregated_endpoint_accepts_plain_datagrams() {
        let (a, b) = udp_pair();
        let b = b.with_aggregation(8);
        // Plain single-packet sends from an un-aggregated peer.
        assert!(a.send(test_packet(5)).is_ok());
        let mut got = Vec::new();
        for _ in 0..100_000 {
            if b.recv_batch(&mut got, 4) > 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got.len(), 1);
        assert_eq!(decode_ref(&got[0]).unwrap().0.frame, 5);
        // The single-packet recv() also splits aggregated datagrams.
        let a = a.with_aggregation(4);
        let mut outgoing: VecDeque<PacketBuf> = (10..14).map(test_packet).collect();
        while !outgoing.is_empty() {
            if a.send_batch(&mut outgoing) == 0 {
                std::thread::yield_now();
            }
        }
        let mut singles = Vec::new();
        for _ in 0..100_000 {
            if let Some(p) = b.recv() {
                singles.push(p);
                if singles.len() == 4 {
                    break;
                }
            } else {
                std::thread::yield_now();
            }
        }
        let frames: Vec<u32> = singles.iter().map(|p| decode_ref(p).unwrap().0.frame).collect();
        assert_eq!(frames, vec![10, 11, 12, 13]);
    }

    #[test]
    fn udp_pooled_receive_recycles_slots() {
        let pool = PacketPool::new(8, 2048);
        let (a, b) = udp_pair();
        let b = b.with_pool(pool.clone());
        for round in 0..5u32 {
            let mut outgoing: VecDeque<PacketBuf> =
                (0..4).map(|i| test_packet(round * 4 + i)).collect();
            while !outgoing.is_empty() {
                if a.send_batch(&mut outgoing) == 0 {
                    std::thread::yield_now();
                }
            }
            let got = recv_n(&b, 4);
            assert_eq!(got.len(), 4);
            for (i, p) in got.iter().enumerate() {
                assert_eq!(decode_ref(p).unwrap().0.frame, round * 4 + i as u32);
            }
            // Dropping the received packets returns their slots.
            drop(got);
        }
        // All slots come home once the endpoint (and its staged
        // buffers) is gone.
        drop(b);
        assert_eq!(pool.available(), 8, "no pooled slot may leak");
    }

    #[test]
    fn pending_counts_queued_packets() {
        let (rru, bbu) = MemFronthaul::pair(16);
        assert_eq!(bbu.pending(), 0);
        rru.send(test_packet(0)).unwrap();
        rru.send(test_packet(1)).unwrap();
        assert_eq!(bbu.pending(), 2);
        bbu.recv();
        assert_eq!(bbu.pending(), 1);
    }

    #[test]
    fn udp_send_to_invalid_peer_counts_tx_error() {
        // Port 0 is never a valid destination: the kernel rejects the
        // datagram outright — a real error, not backpressure, so the
        // packet is a counted drop and the link keeps going.
        let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let fh = UdpFronthaul::new(any, any).unwrap();
        assert!(fh.send(test_packet(0)).is_ok(), "real errors are drops, not retries");
        assert_eq!(fh.link_errors().0, 1, "the drop must be counted");
        // The batched path counts and sheds the failing head the same way.
        let mut outgoing: VecDeque<PacketBuf> = (0..3).map(test_packet).collect();
        fh.send_batch(&mut outgoing);
        assert!(fh.link_errors().0 >= 2, "batched send must count the failed datagram");
        assert!(outgoing.len() < 3, "the failed head must not clog the queue");
    }

    /// Builds one packet per `(frame, payload)` pair.
    fn encode_all(pkts: &[(u32, Vec<u8>)]) -> Vec<PacketBuf> {
        pkts.iter()
            .map(|(f, pl)| {
                PacketBuf::from(encode(
                    &PacketHeader {
                        frame: *f,
                        symbol: 0,
                        antenna: 0,
                        dir: PacketDir::Uplink,
                        cell: 0,
                        payload_len: pl.len() as u32,
                    },
                    pl,
                ))
            })
            .collect()
    }

    /// Deterministic multi-seed batch≡single equivalence over the real
    /// UDP loopback: the batched syscalls must deliver exactly the bytes
    /// the one-datagram-per-syscall path delivers, in the same order.
    #[test]
    fn udp_batch_equals_single_across_seeds() {
        for seed in [1u64, 42, 4242] {
            let pkts: Vec<(u32, Vec<u8>)> = (0..30u32)
                .map(|i| {
                    let len = ((seed as u32 * 31 + i * 7) % 120) as usize;
                    (i, (0..len).map(|j| (seed as usize + i as usize * 13 + j) as u8).collect())
                })
                .collect();
            let (batx, barx) = udp_pair();
            let (sitx, sirx) = udp_pair();
            let mut outgoing: VecDeque<PacketBuf> = encode_all(&pkts).into();
            while !outgoing.is_empty() {
                if batx.send_batch(&mut outgoing) == 0 {
                    std::thread::yield_now();
                }
            }
            for p in encode_all(&pkts) {
                let mut p = p;
                while let Err(back) = sitx.send(p) {
                    p = back;
                    std::thread::yield_now();
                }
            }
            let batched = recv_n(&barx, pkts.len());
            let single = recv_n(&sirx, pkts.len());
            assert_eq!(batched.len(), pkts.len(), "seed {seed}: batched path lost packets");
            assert_eq!(single.len(), pkts.len(), "seed {seed}: single path lost packets");
            for (i, (b, s)) in batched.iter().zip(single.iter()).enumerate() {
                assert_eq!(&b[..], &s[..], "seed {seed}, packet {i}: payload divergence");
            }
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For any packet sequence, sending through `send_batch` and
            /// draining through `recv_batch` yields byte-identical
            /// packets, in the same order, as the one-at-a-time path.
            #[test]
            fn mem_batch_equals_single(
                pkts in proptest::collection::vec(
                    (0u32..1000, proptest::collection::vec(any::<u8>(), 0..64)),
                    0..40,
                )
            ) {
                let (batx, barx) = MemFronthaul::pair(64);
                let (sitx, sirx) = MemFronthaul::pair(64);
                let mut outgoing: VecDeque<PacketBuf> = encode_all(&pkts).into();
                let sent = batx.send_batch(&mut outgoing);
                prop_assert_eq!(sent, pkts.len());
                for p in encode_all(&pkts) {
                    prop_assert!(sitx.send(p).is_ok());
                }
                let mut batched = Vec::new();
                barx.recv_batch(&mut batched, 64);
                let mut single = Vec::new();
                while let Some(p) = sirx.recv() {
                    single.push(p);
                }
                prop_assert_eq!(batched.len(), pkts.len());
                prop_assert_eq!(single.len(), pkts.len());
                for (b, s) in batched.iter().zip(single.iter()) {
                    prop_assert_eq!(&b[..], &s[..]);
                }
            }
        }
    }
}
