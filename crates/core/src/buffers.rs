//! Global shared-memory buffers.
//!
//! "Worker threads exchange intermediate results using a set of shared
//! memory buffers. Workers access these buffers without locking" (§3.2).
//! Safety comes from the scheduler, not from locks: the manager only
//! dispatches a task once its inputs are fully written, and tasks within
//! a block write disjoint regions. [`SharedVec`] encodes that contract:
//! an unsafe, lock-free grid whose mutable views the caller promises are
//! disjoint.

use agora_fronthaul::{PacketBuf, HEADER_LEN};
use agora_math::simd::CACHE_LINE;
use agora_math::Cf32;
use core::cell::UnsafeCell;
use core::ops::{Deref, DerefMut, Range};
use core::ptr::NonNull;
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};

/// Element types whose all-zero byte pattern is a valid value — what lets
/// a plane start life as untouched, lazily zeroed pages.
///
/// # Safety
/// Every bit pattern of zeros must be a valid `Self`, and `Self` must
/// need no drop (`Copy`).
pub unsafe trait Zeroable: Copy {}
// SAFETY: integers and IEEE floats are valid (and zero) when all bits are
// zero; `Cf32` is `repr(C)` over two `f32`s.
unsafe impl Zeroable for u8 {}
unsafe impl Zeroable for i8 {}
unsafe impl Zeroable for f32 {}
unsafe impl Zeroable for Cf32 {}

/// An owned, zero-initialised slice whose first element sits on a cache
/// line: the storage of every frame plane ([`SharedVec`]) and of the
/// workers' transform buffer. A plane's layout is then a property of the
/// program, not of the allocator's mood — whole-line streaming stores
/// land on whole lines, and a second engine in the process gets the same
/// planes as the first.
///
/// # Safety argument for the allocation
/// `zeroed` asks the global allocator for `len * size_of::<T>()` bytes
/// plus one cache line, at `T`'s own alignment, and places the slice at
/// the first line boundary inside it: the offset is below one line, so the
/// slice ends inside the allocation, and a line boundary is aligned for
/// every `T` whose alignment divides a line (asserted). Asking for the
/// small alignment is deliberate — `alloc_zeroed` at an alignment above
/// the allocator's minimum is `posix_memalign` + `memset`, which would
/// touch every page of a plane at set-up, while at `T`'s alignment it is
/// `calloc`, whose large blocks are untouched zero pages. The bytes are
/// zero, which `T: Zeroable` makes `len` valid `T`s. `raw` keeps the
/// allocator's pointer and `layout(len)` recomputes its layout, so `Drop`
/// frees exactly what was allocated; an empty buffer allocates nothing
/// (`raw` is null) and points at a line-aligned dangling address.
pub struct AlignedBuf<T> {
    raw: *mut u8,
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: `AlignedBuf` owns its allocation exclusively, like `Box<[T]>`.
unsafe impl<T: Send> Send for AlignedBuf<T> {}
unsafe impl<T: Sync> Sync for AlignedBuf<T> {}

impl<T> AlignedBuf<T> {
    fn layout(len: usize) -> Layout {
        len.checked_mul(size_of::<T>())
            .and_then(|bytes| bytes.checked_add(CACHE_LINE))
            .and_then(|bytes| Layout::from_size_align(bytes, align_of::<T>()).ok())
            .expect("buffer size overflows the address space")
    }
}

impl<T: Zeroable> AlignedBuf<T> {
    /// Allocates `len` zeroed elements starting on a cache line.
    pub fn zeroed(len: usize) -> Self {
        assert!(CACHE_LINE.is_multiple_of(align_of::<T>()), "element alignment exceeds a line");
        if len == 0 {
            let ptr = NonNull::new(core::ptr::without_provenance_mut(CACHE_LINE))
                .expect("a cache line is not at address zero");
            return Self { raw: core::ptr::null_mut(), ptr, len };
        }
        let layout = Self::layout(len);
        // SAFETY: `layout` has a non-zero size (it includes the spare line).
        let raw = unsafe { alloc_zeroed(layout) };
        if raw.is_null() {
            handle_alloc_error(layout);
        }
        let pad = (CACHE_LINE - raw as usize % CACHE_LINE) % CACHE_LINE;
        // SAFETY: `pad < CACHE_LINE`, the spare bytes of the allocation.
        let ptr = unsafe { NonNull::new_unchecked(raw.add(pad) as *mut T) };
        Self { raw, ptr, len }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if !self.raw.is_null() {
            // SAFETY: `raw` came from `alloc_zeroed(Self::layout(len))`,
            // and elements are `Copy` (nothing to drop).
            unsafe { dealloc(self.raw, Self::layout(self.len)) };
        }
    }
}

impl<T> Deref for AlignedBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is aligned and heads `len` initialised elements
        // this buffer owns (see the type's safety argument).
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for AlignedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as `deref`, and `&mut self` is exclusive.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// A heap buffer shared across threads without locking.
///
/// # Safety contract
/// `slice_mut` hands out `&mut` views without synchronisation. Callers
/// (the engine's task bodies) must guarantee that concurrently-outstanding
/// mutable views are disjoint, and that no read of a region races a write
/// — exactly the guarantee Agora's dependency-respecting scheduler
/// provides. All bookkeeping that *establishes* those guarantees lives in
/// the manager thread; queue send/receive edges provide the necessary
/// happens-before ordering (release on task enqueue, acquire on dequeue).
/// A task that writes a plane with streaming stores additionally issues
/// `agora_math::simd::stream_fence` before it completes: the release on
/// its completion message does not order those stores.
///
/// Every view is built from the buffer's raw pointer and covers only the
/// requested elements, so disjoint views never alias — no reference to the
/// whole plane is ever materialised. The storage itself is an
/// [`AlignedBuf`] (see its safety argument): line-aligned, zeroed, freed
/// on drop.
pub struct SharedVec<T> {
    buf: AlignedBuf<T>,
}

// SAFETY: shared access hands out `&mut T` to whichever thread asks, under
// the scheduler contract above, so sharing needs `T: Send`.
unsafe impl<T: Send> Sync for SharedVec<T> {}

impl<T: Zeroable> SharedVec<T> {
    /// Allocates `len` zeroed elements, the first on a cache line.
    pub fn zeroed(len: usize) -> Self {
        Self { buf: AlignedBuf::zeroed(len) }
    }
}

impl<T> SharedVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of a range.
    ///
    /// # Safety
    /// No concurrent mutable view may overlap `range` (scheduler-enforced).
    pub unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        assert!(range.start <= range.end && range.end <= self.len(), "view out of plane");
        core::slice::from_raw_parts(self.buf.ptr.as_ptr().add(range.start), range.len())
    }

    /// Mutable view of a range.
    ///
    /// # Safety
    /// No concurrent view (mutable or immutable) may overlap `range`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        assert!(range.start <= range.end && range.end <= self.len(), "view out of plane");
        core::slice::from_raw_parts_mut(self.buf.ptr.as_ptr().add(range.start), range.len())
    }

    /// Writes a single element through a raw pointer. Unlike
    /// [`Self::slice_mut`] this never materialises a wide `&mut`, so
    /// concurrent writers to *different* indices within the same logical
    /// region are sound.
    ///
    /// # Safety
    /// `idx < len`, and no concurrent access (read or write) to index `idx`.
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len(), "write out of plane");
        core::ptr::write(self.buf.ptr.as_ptr().add(idx), value);
    }

    /// Reads a single element through a raw pointer.
    ///
    /// # Safety
    /// `idx < len`, and no concurrent write to index `idx`.
    pub unsafe fn read(&self, idx: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(idx < self.len(), "read out of plane");
        core::ptr::read(self.buf.ptr.as_ptr().add(idx))
    }
}

/// Zero-copy packet retention for one in-flight frame: one slot per
/// (symbol, antenna), holding the whole received packet (header +
/// payload) until the frame retires. FFT tasks read the IQ payload as a
/// borrowed view straight out of the receive buffer — pooled or heap —
/// so intake never copies sample bytes.
///
/// # Safety contract
/// Mirrors [`SharedVec`]: synchronisation comes from the engine's
/// scheduler, not from locks. The network thread is the *sole* writer
/// ([`Self::store`] / [`Self::clear_all`]); it only clears a slot table
/// after observing (Acquire on `min_frame`) that the previous occupant
/// frame retired, and only stores into unoccupied entries. Readers
/// ([`Self::payload`]) run strictly after the store that filled the
/// entry, ordered by the task-queue release/acquire edge that dispatched
/// them, and never survive frame retirement.
pub struct PacketSlots {
    slots: UnsafeCell<Box<[Option<PacketBuf>]>>,
}

// SAFETY: see the scheduler contract above — disjoint-entry writes by a
// single writer thread, reads ordered behind the filling store by queue
// edges, clears ordered behind every read by frame retirement.
unsafe impl Send for PacketSlots {}
unsafe impl Sync for PacketSlots {}

impl PacketSlots {
    /// Allocates `n` empty slots.
    pub fn new(n: usize) -> Self {
        Self { slots: UnsafeCell::new((0..n).map(|_| None).collect()) }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        // SAFETY: the length is immutable after construction.
        unsafe { (&*self.slots.get()).len() }
    }

    /// True if the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when a packet is retained at `idx`. Sound under concurrent
    /// `payload` reads (both are shared reads); the single-writer rule
    /// makes the answer exact for the network thread.
    pub fn occupied(&self, idx: usize) -> bool {
        // SAFETY: shared read; no `&mut` can exist concurrently because
        // writes only target entries no reader (or occupancy probe)
        // touches — unoccupied entries or retired frames.
        unsafe { (*self.slots.get())[idx].is_some() }
    }

    /// Retains `pkt` at `idx`. Storing over an occupied entry drops the
    /// previous packet.
    ///
    /// # Safety
    /// Caller is the sole writer thread and no reader holds a view of
    /// `idx` (no task was dispatched for it, or the caller has exclusive
    /// access to the whole table).
    pub unsafe fn store(&self, idx: usize, pkt: PacketBuf) {
        (*self.slots.get())[idx] = Some(pkt);
    }

    /// Borrowed payload view (bytes after the 64-byte header) of the
    /// packet at `idx`, or `None` when the packet never arrived.
    ///
    /// # Safety
    /// The entry must not be concurrently stored or cleared — guaranteed
    /// for dispatched tasks by the scheduler contract above.
    pub unsafe fn payload(&self, idx: usize) -> Option<&[u8]> {
        (*self.slots.get())[idx].as_ref().map(|p| &p[HEADER_LEN..])
    }

    /// Drops every retained packet (returning pooled buffers to their
    /// pool).
    ///
    /// # Safety
    /// Caller is the sole writer thread and no reader can touch this
    /// table: its frame retired (min_frame advanced past it) or the
    /// engine is quiescent.
    pub unsafe fn clear_all(&self) {
        for slot in (*self.slots.get()).iter_mut() {
            *slot = None;
        }
    }
}

/// All shared buffers for one in-flight frame.
///
/// Layouts (all row-major, sizes derived from the cell config):
/// * `rx_pkts[symbol * M + antenna]` — retained received packets
///   (zero-copy payload views for the FFT stage).
/// * `freq[symbol]` — post-FFT active subcarriers of data symbols,
///   `[block][antenna][8 sc]`: a demod block's antenna samples are whole
///   cache lines, contiguous per antenna.
/// * `csi[group][antenna][user]` — the estimated channel of each ZF
///   group, written by the pilot FFT tasks; a ZF task reads one `M x K`
///   row.
/// * `det[group][user][antenna]`, `pre[group][antenna][user]` — ZF
///   outputs: the formed detector and the power-normalised precoder.
/// * `inv_noise[group][user]` — ZF's third output: the reciprocal of the
///   noise variance user `u` sees behind the group's detector, which is
///   what demodulation scales its LLRs by.
/// * `llr[symbol][user][bit]` — demodulated soft bits, quantised to `i8`
///   for the fixed-point decoder.
/// * `decoded[symbol][user][bit]` + `decode_ok[symbol][user]`.
/// * downlink mirrors: `dl_bits`, `dl_freq`, `dl_time`.
pub struct FrameBuffers {
    /// Retained received packets per (symbol, antenna).
    pub rx_pkts: PacketSlots,
    /// Frequency-domain samples per data/pilot symbol.
    pub freq: SharedVec<Cf32>,
    /// Channel estimates, one `M x K` matrix per ZF group.
    pub csi: SharedVec<Cf32>,
    /// Uplink detectors.
    pub det: SharedVec<Cf32>,
    /// Downlink precoders.
    pub pre: SharedVec<Cf32>,
    /// `1 / max(noise * ||w_u||^2, 1e-12)` per (ZF group, user): the
    /// post-detection noise scale, written once per frame by the group's
    /// ZF task and read by every demodulation block of the group.
    pub inv_noise: SharedVec<f32>,
    /// Soft demodulator output, quantised.
    pub llr: SharedVec<i8>,
    /// Decoded information bits.
    pub decoded: SharedVec<u8>,
    /// Per-(symbol, user) decode success flags (1 = CRC/syndrome pass).
    pub decode_ok: SharedVec<u8>,
    /// Downlink coded bits per (symbol, user).
    pub dl_bits: SharedVec<u8>,
    /// Downlink frequency-domain antenna samples per symbol.
    pub dl_freq: SharedVec<Cf32>,
    /// Downlink time-domain samples per (symbol, antenna).
    pub dl_time: SharedVec<Cf32>,
    // --- derived strides ---
    freq_per_symbol: usize,
    mk: usize,
    llr_per_user: usize,
    info_bits: usize,
    dl_bits_per_user: usize,
}

/// Index helpers for the frame buffers; all geometry in one place.
#[derive(Debug, Clone, Copy)]
pub struct BufferGeometry {
    /// Antennas.
    pub m: usize,
    /// Users.
    pub k: usize,
    /// Active subcarriers.
    pub q: usize,
    /// Symbols per frame.
    pub symbols: usize,
    /// Time-domain samples per symbol.
    pub samples: usize,
    /// Demod kernel block (8 subcarriers).
    pub block: usize,
    /// ZF group size.
    pub zf_group: usize,
    /// Coded-bit capacity per (symbol, user).
    pub cap_bits: usize,
    /// Information bits per code block.
    pub info_bits: usize,
}

impl BufferGeometry {
    /// Offset of `(block, antenna)` within a symbol's frequency data
    /// (block layout): `block * M * B + ant * B`.
    pub fn freq_block_offset(&self, block: usize, ant: usize) -> usize {
        block * self.m * self.block + ant * self.block
    }
}

impl FrameBuffers {
    /// Allocates zeroed buffers for one frame slot.
    pub fn new(g: &BufferGeometry) -> Self {
        let freq_per_symbol = g.q * g.m;
        let groups = g.q.div_ceil(g.zf_group);
        Self {
            rx_pkts: PacketSlots::new(g.symbols * g.m),
            freq: SharedVec::zeroed(g.symbols * freq_per_symbol),
            csi: SharedVec::zeroed(groups * g.m * g.k),
            det: SharedVec::zeroed(groups * g.k * g.m),
            pre: SharedVec::zeroed(groups * g.m * g.k),
            inv_noise: SharedVec::zeroed(groups * g.k),
            llr: SharedVec::zeroed(g.symbols * g.k * g.cap_bits),
            decoded: SharedVec::zeroed(g.symbols * g.k * g.info_bits),
            decode_ok: SharedVec::zeroed(g.symbols * g.k),
            dl_bits: SharedVec::zeroed(g.symbols * g.k * g.cap_bits),
            dl_freq: SharedVec::zeroed(g.symbols * freq_per_symbol),
            dl_time: SharedVec::zeroed(g.symbols * g.m * g.samples),
            freq_per_symbol,
            mk: g.m * g.k,
            llr_per_user: g.cap_bits,
            info_bits: g.info_bits,
            dl_bits_per_user: g.cap_bits,
        }
    }

    /// Slot index of one (symbol, antenna) packet in [`Self::rx_pkts`].
    pub fn pkt_index(&self, g: &BufferGeometry, symbol: usize, ant: usize) -> usize {
        symbol * g.m + ant
    }

    /// Borrowed IQ payload of the retained (symbol, antenna) packet.
    ///
    /// # Safety
    /// Same contract as [`PacketSlots::payload`]; additionally the
    /// packet must have been stored (the task was only dispatched after
    /// intake), so the view is always present.
    pub unsafe fn rx_payload_view(&self, g: &BufferGeometry, symbol: usize, ant: usize) -> &[u8] {
        self.rx_pkts
            .payload(self.pkt_index(g, symbol, ant))
            .expect("missing packet for dispatched task")
    }

    /// Range of one symbol's frequency-domain data (all antennas).
    pub fn freq_symbol_range(&self, symbol: usize) -> core::ops::Range<usize> {
        let base = symbol * self.freq_per_symbol;
        base..base + self.freq_per_symbol
    }

    /// Offset of `(block, antenna)` within a symbol's frequency data
    /// (block layout): `block * M * B + ant * B`.
    pub fn freq_block_offset(&self, g: &BufferGeometry, block: usize, ant: usize) -> usize {
        g.freq_block_offset(block, ant)
    }

    /// Range of one ZF group's CSI (`M x K` row-major).
    pub fn csi_range(&self, group: usize) -> core::ops::Range<usize> {
        let base = group * self.mk;
        base..base + self.mk
    }

    /// Range of one ZF group's detector.
    pub fn det_range(&self, group: usize) -> core::ops::Range<usize> {
        let base = group * self.mk;
        base..base + self.mk
    }

    /// Range of one ZF group's precoder.
    pub fn pre_range(&self, group: usize) -> core::ops::Range<usize> {
        let base = group * self.mk;
        base..base + self.mk
    }

    /// Range of one ZF group's per-user reciprocal noise variances.
    pub fn inv_noise_range(&self, g: &BufferGeometry, group: usize) -> core::ops::Range<usize> {
        group * g.k..(group + 1) * g.k
    }

    /// Range of one (symbol, user) LLR block.
    pub fn llr_range(
        &self,
        g: &BufferGeometry,
        symbol: usize,
        user: usize,
    ) -> core::ops::Range<usize> {
        let base = (symbol * g.k + user) * self.llr_per_user;
        base..base + self.llr_per_user
    }

    /// Range of one (symbol, user) decoded block.
    pub fn decoded_range(
        &self,
        g: &BufferGeometry,
        symbol: usize,
        user: usize,
    ) -> core::ops::Range<usize> {
        let base = (symbol * g.k + user) * self.info_bits;
        base..base + self.info_bits
    }

    /// Range of one (symbol, user) downlink coded-bit block.
    pub fn dl_bits_range(
        &self,
        g: &BufferGeometry,
        symbol: usize,
        user: usize,
    ) -> core::ops::Range<usize> {
        let base = (symbol * g.k + user) * self.dl_bits_per_user;
        base..base + self.dl_bits_per_user
    }

    /// The decoded bits and decode-success flags of `uplink` symbols, per
    /// `[symbol][user]` (other symbols stay empty).
    ///
    /// # Safety
    /// No decode task of this frame may be in flight.
    pub unsafe fn read_decoded(
        &self,
        g: &BufferGeometry,
        uplink: &[usize],
    ) -> (Vec<Vec<Vec<u8>>>, Vec<Vec<bool>>) {
        let mut decoded = vec![Vec::new(); g.symbols];
        let mut decode_ok = vec![Vec::new(); g.symbols];
        for &symbol in uplink {
            for user in 0..g.k {
                // SAFETY: the caller guarantees no writer remains.
                let bits = unsafe { self.decoded.slice(self.decoded_range(g, symbol, user)) };
                let ok = unsafe { self.decode_ok.read(symbol * g.k + user) } != 0;
                decoded[symbol].push(bits.to_vec());
                decode_ok[symbol].push(ok);
            }
        }
        (decoded, decode_ok)
    }

    /// Range of one (symbol, antenna) downlink time-domain block.
    pub fn dl_time_range(
        &self,
        g: &BufferGeometry,
        symbol: usize,
        ant: usize,
    ) -> core::ops::Range<usize> {
        let base = (symbol * g.m + ant) * g.samples;
        base..base + g.samples
    }

    /// Combined range of `count` consecutive antennas' downlink
    /// time-domain blocks within one symbol — antennas are adjacent in
    /// this plane, so a batched IFFT task writes all of its outputs
    /// through a single view.
    pub fn dl_time_run_range(
        &self,
        g: &BufferGeometry,
        symbol: usize,
        ant0: usize,
        count: usize,
    ) -> core::ops::Range<usize> {
        debug_assert!(ant0 + count <= g.m, "antenna run exceeds array");
        let base = (symbol * g.m + ant0) * g.samples;
        base..base + count * g.samples
    }
}

/// The window of in-flight frame buffers, indexed by `frame % window`.
pub struct FrameWindow {
    slots: Vec<FrameBuffers>,
    geometry: BufferGeometry,
}

impl FrameWindow {
    /// Allocates `window` frame slots.
    pub fn new(geometry: BufferGeometry, window: usize) -> Self {
        assert!(window >= 2);
        Self { slots: (0..window).map(|_| FrameBuffers::new(&geometry)).collect(), geometry }
    }

    /// The buffer geometry.
    pub fn geometry(&self) -> &BufferGeometry {
        &self.geometry
    }

    /// Number of slots.
    pub fn window(&self) -> usize {
        self.slots.len()
    }

    /// The slot a frame id maps to. The engine must retire frame
    /// `f - window` before frame `f` arrives (enforced by the manager's
    /// flow control).
    pub fn slot(&self, frame: u32) -> &FrameBuffers {
        &self.slots[frame as usize % self.slots.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> BufferGeometry {
        BufferGeometry {
            m: 4,
            k: 2,
            q: 32,
            symbols: 3,
            samples: 64,
            block: 8,
            zf_group: 16,
            cap_bits: 64,
            info_bits: 20,
        }
    }

    #[test]
    fn shared_vec_basic_access() {
        let v = SharedVec::<u8>::zeroed(10);
        assert_eq!(v.len(), 10);
        unsafe {
            v.slice_mut(0..10).fill(7);
            let s = v.slice_mut(2..5);
            s[0] = 42;
            assert_eq!(v.slice(0..10)[2], 42);
            assert_eq!(v.slice(0..10)[0], 7);
            v.write(9, 5);
            assert_eq!(v.read(9), 5);
        }
    }

    fn is_line_aligned<T>(p: *const T) -> bool {
        (p as usize).is_multiple_of(CACHE_LINE)
    }

    /// Every length, odd ones included, starts on a line, reads as
    /// zeros and is writable to its last element; an empty buffer
    /// allocates nothing and still hands out (empty) views.
    #[test]
    fn aligned_buf_is_aligned_zeroed_and_sized_for_every_length() {
        fn check<T: Zeroable + PartialEq + core::fmt::Debug>(one: T) {
            // Keep the buffers alive so the allocator hands out fresh,
            // differently placed blocks.
            let mut kept = Vec::new();
            for len in (0..70).chain([4096, 100_003]) {
                let mut b = AlignedBuf::<T>::zeroed(len);
                assert!(is_line_aligned(b.as_ptr()), "len {len}");
                assert_eq!(b.len(), len);
                // SAFETY: the all-zero pattern is a valid `T`.
                let zero: T = unsafe { core::mem::zeroed() };
                assert!(b.iter().all(|x| *x == zero), "len {len}");
                b.fill(one);
                assert!(b.iter().all(|x| *x == one));
                kept.push(b);
            }
        }
        check(Cf32::ONE);
        check(1.0f32);
        check(1i8);
        check(1u8);
        let empty = SharedVec::<Cf32>::zeroed(0);
        assert!(empty.is_empty() && is_line_aligned(empty.buf.as_ptr()));
        // SAFETY: single-threaded.
        assert!(unsafe { empty.slice(0..0) }.is_empty());
    }

    #[test]
    #[should_panic(expected = "view out of plane")]
    fn shared_vec_rejects_a_view_past_the_end() {
        let v = SharedVec::<u8>::zeroed(8);
        // SAFETY: single-threaded; the call must panic, not hand out memory.
        let _ = unsafe { v.slice(4..9) };
    }

    /// The base of every plane is on a cache line, for each element type
    /// the frame uses, whatever the allocator did before: also for the
    /// second window built after the first was dropped (its blocks come
    /// from the free lists, not from fresh pages).
    #[test]
    fn every_frame_plane_starts_on_a_cache_line() {
        fn check(fb: &FrameBuffers, what: &str) {
            let cf32 = [&fb.freq, &fb.csi, &fb.det, &fb.pre];
            for (i, plane) in cf32.into_iter().chain([&fb.dl_freq, &fb.dl_time]).enumerate() {
                assert!(is_line_aligned(plane.buf.as_ptr()), "{what}: Cf32 plane {i}");
            }
            assert!(is_line_aligned(fb.llr.buf.as_ptr()), "{what}: llr");
            assert!(is_line_aligned(fb.inv_noise.buf.as_ptr()), "{what}: inv_noise");
            for (i, plane) in [&fb.decoded, &fb.decode_ok, &fb.dl_bits].into_iter().enumerate() {
                assert!(is_line_aligned(plane.buf.as_ptr()), "{what}: u8 plane {i}");
            }
        }
        // A small geometry (planes from the allocator's bins) and one
        // whose planes are large enough to be mapped on their own.
        let large = BufferGeometry { m: 16, q: 1200, symbols: 4, samples: 2048, ..geom() };
        for g in [geom(), large] {
            let first = FrameWindow::new(g, 2);
            (0..2).for_each(|f| check(first.slot(f), "first window"));
            // Disturb the heap by an amount that is not a line multiple.
            let shim = vec![0u8; 24];
            drop(first);
            let second = FrameWindow::new(g, 3);
            (0..3).for_each(|f| check(second.slot(f), "second window"));
            drop(shim);
        }
    }

    #[test]
    fn shared_vec_disjoint_writes_from_threads() {
        let v = std::sync::Arc::new(SharedVec::<f32>::zeroed(1000));
        std::thread::scope(|s| {
            for t in 0..4 {
                let v = v.clone();
                s.spawn(move || {
                    let r = unsafe { v.slice_mut(t * 250..(t + 1) * 250) };
                    for (i, x) in r.iter_mut().enumerate() {
                        *x = (t * 250 + i) as f32;
                    }
                });
            }
        });
        let all = unsafe { v.slice(0..1000) };
        for (i, &x) in all.iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }

    #[test]
    fn pkt_indices_are_unique_and_tile_the_slot_table() {
        let g = geom();
        let fb = FrameBuffers::new(&g);
        // Slot indices for different (symbol, antenna) never collide and
        // cover the whole table.
        let mut seen = std::collections::BTreeSet::new();
        for sym in 0..g.symbols {
            for ant in 0..g.m {
                assert!(seen.insert(fb.pkt_index(&g, sym, ant)), "index collision");
            }
        }
        assert_eq!(seen.len(), fb.rx_pkts.len());
        assert_eq!(*seen.iter().next_back().unwrap(), fb.rx_pkts.len() - 1);
    }

    #[test]
    fn packet_slots_store_and_view_roundtrip() {
        use agora_fronthaul::{encode, PacketDir, PacketHeader};
        let g = geom();
        let fb = FrameBuffers::new(&g);
        let payload: Vec<u8> = (0..g.samples * 3).map(|i| i as u8).collect();
        let hdr = PacketHeader {
            frame: 7,
            symbol: 1,
            antenna: 2,
            dir: PacketDir::Uplink,
            cell: 3,
            payload_len: payload.len() as u32,
        };
        let idx = fb.pkt_index(&g, 1, 2);
        assert!(!fb.rx_pkts.occupied(idx));
        // SAFETY: single-threaded test — no concurrent access.
        unsafe {
            fb.rx_pkts.store(idx, PacketBuf::Heap(encode(&hdr, &payload)));
            assert!(fb.rx_pkts.occupied(idx));
            assert_eq!(fb.rx_payload_view(&g, 1, 2), &payload[..]);
            assert!(fb.rx_pkts.payload(fb.pkt_index(&g, 0, 0)).is_none());
            fb.rx_pkts.clear_all();
            assert!(!fb.rx_pkts.occupied(idx));
        }
    }

    #[test]
    fn llr_ranges_tile_buffer() {
        let g = geom();
        let fb = FrameBuffers::new(&g);
        let mut total = 0;
        for sym in 0..g.symbols {
            for u in 0..g.k {
                total += fb.llr_range(&g, sym, u).len();
            }
        }
        assert_eq!(total, fb.llr.len());
    }

    #[test]
    fn block_offsets_stay_in_symbol() {
        let g = geom();
        let fb = FrameBuffers::new(&g);
        let per_symbol = fb.freq_symbol_range(0).len();
        assert_eq!(per_symbol, g.q * g.m);
        // Last block, last antenna stays in range.
        let blocks = g.q / g.block;
        let off = fb.freq_block_offset(&g, blocks - 1, g.m - 1);
        assert!(off + g.block <= per_symbol);
    }

    #[test]
    fn window_wraps_slots() {
        let w = FrameWindow::new(geom(), 3);
        assert_eq!(w.window(), 3);
        let a = w.slot(0) as *const _;
        let b = w.slot(3) as *const _;
        assert_eq!(a, b, "frame 3 reuses frame 0's slot");
        assert_ne!(w.slot(1) as *const _, a);
    }
}
