//! Global shared-memory buffers, and the one owner of their layout.
//!
//! "Worker threads exchange intermediate results using a set of shared
//! memory buffers. Workers access these buffers without locking" (§3.2).
//!
//! # The scheduler contract
//! Safety comes from the scheduler, not from locks. Every view of a frame
//! plane is taken through one of three checked calls — [`Plane::row`]
//! reads a row, [`Plane::row_mut`] writes a column range of a row,
//! [`Plane::store`] writes one element through a raw pointer — and a
//! received packet's payload through [`PacketSlots::payload`]. Each asserts
//! its row and columns, in release too, so no view leaves the row its key
//! names; what makes the views sound is what the manager guarantees:
//! 1. the frame graph (`state::GRAPH`) dispatches the readers of a row only
//!    after its writers completed, and the task queues carry that order
//!    across threads (release on task enqueue and on completion, acquire
//!    on dequeue);
//! 2. the tasks in flight at once write disjoint columns: one task per
//!    (stage, key, block or antenna run) owns the columns the layout
//!    below gives it;
//! 3. a window slot is not reused while a task of its old frame is in
//!    flight: the watermark moves only when a frame retires with none.
//!
//! A task that writes a plane with streaming stores also issues
//! `agora_math::simd::stream_fence` before it completes: the release on
//! its completion message does not order those stores. The calls are
//! `pub(crate)` because the contract binds every caller — the task bodies
//! the manager dispatches, and the readers of a frame finished with
//! nothing in flight. Outside the crate a quiescent frame is read through
//! [`Plane::view`], which is `unsafe` for that reason.

use agora_fronthaul::{PacketBuf, HEADER_LEN};
use agora_math::simd::CACHE_LINE;
use agora_math::Cf32;
use core::cell::UnsafeCell;
use core::ops::{Bound, Deref, DerefMut, Range, RangeBounds};
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
/// line: the storage of every frame [`Plane`] and of the workers'
/// transform buffer. A plane's layout is then a property of the
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

/// A plane's row key — what the frame graph orders one writer per:
/// `usize` for the `[symbol]` and `[group]` planes, `(usize, usize)` for
/// the `[symbol][user]` planes and the `[symbol][antenna]` packet table.
pub trait RowKey: Copy + core::fmt::Debug {
    /// Rows of a plane whose keys run below `extent`.
    fn rows(extent: Self) -> usize;
    /// The row of `self` in that plane, or `None` when it is out of range.
    fn row(self, extent: Self) -> Option<usize>;
}

impl RowKey for usize {
    fn rows(extent: Self) -> usize {
        extent
    }

    fn row(self, extent: Self) -> Option<usize> {
        (self < extent).then_some(self)
    }
}

impl RowKey for (usize, usize) {
    fn rows((outer, inner): Self) -> usize {
        outer * inner
    }

    fn row(self, (outer, inner): Self) -> Option<usize> {
        (self.0 < outer && self.1 < inner).then_some(self.0 * inner + self.1)
    }
}

/// One frame plane: a row of `row_len` elements per key below `keys`,
/// row-major in one line-aligned, zeroed [`AlignedBuf`], shared across
/// threads without locks under the scheduler contract (module docs).
/// Every view is built from the buffer's raw pointer and covers only the
/// columns asked for, so disjoint views never alias: no reference to the
/// whole plane exists while tasks run.
pub struct Plane<T, K = usize> {
    buf: AlignedBuf<T>,
    keys: K,
    row_len: usize,
}

// SAFETY: shared access hands out `&mut T` to whichever thread asks, under
// the scheduler contract, so sharing needs `T: Send`; `keys` and
// `row_len` are never written after construction.
unsafe impl<T: Send, K: Sync> Sync for Plane<T, K> {}

impl<T: Zeroable, K: RowKey> Plane<T, K> {
    fn zeroed(keys: K, row_len: usize) -> Self {
        Self { buf: AlignedBuf::zeroed(K::rows(keys) * row_len), keys, row_len }
    }
}

impl<T, K: RowKey> Plane<T, K> {
    /// Pointer to column `start` of `key`'s row, once `key` and the
    /// `len` columns from `start` are checked inside the plane — in
    /// release too: a message naming a row or columns the plane does not
    /// have must panic, not reach a neighbour's.
    #[inline]
    fn at(&self, key: K, start: usize, len: usize) -> *mut T {
        match key.row(self.keys) {
            Some(row) if start <= self.row_len && len <= self.row_len - start => {
                self.buf.ptr.as_ptr().wrapping_add(row * self.row_len + start)
            }
            _ => out_of_plane(key, start, len, self.keys, self.row_len),
        }
    }

    /// Reads `key`'s row.
    #[inline]
    pub(crate) fn row(&self, key: K) -> &[T] {
        let p = self.at(key, 0, self.row_len);
        // SAFETY: the row lies inside the plane (`at`), and by the
        // scheduler contract nothing writes it while the view lives.
        unsafe { core::slice::from_raw_parts(p, self.row_len) }
    }

    /// Writes columns `cols` of `key`'s row.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn row_mut(&self, key: K, cols: impl RangeBounds<usize>) -> &mut [T] {
        let start = match cols.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match cols.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.row_len,
        };
        // An `end` below `start` wraps to a length no row has.
        let len = end.wrapping_sub(start);
        let p = self.at(key, start, len);
        // SAFETY: the columns lie inside the plane (`at`), and by the
        // scheduler contract no other view of them lives meanwhile.
        unsafe { core::slice::from_raw_parts_mut(p, len) }
    }

    /// Writes column `col` of `key`'s row through a raw pointer. No `&mut`
    /// wider than the element exists, so tasks storing to different
    /// columns of one row at once never alias.
    #[inline]
    pub(crate) fn store(&self, key: K, col: usize, value: T) {
        let p = self.at(key, col, 1);
        // SAFETY: the element lies inside the plane (`at`), and by the
        // scheduler contract no other task accesses it meanwhile.
        unsafe { p.write(value) }
    }

    /// The whole plane (`key` = `None`) or `key`'s row, for a reader
    /// outside the crate — tests and the sweep examples read a
    /// frame once its processor is idle.
    ///
    /// # Safety
    /// No task of the plane's frame may be in flight, and the plane must
    /// not be written while the view lives.
    pub unsafe fn view(&self, key: Option<K>) -> &[T] {
        match key {
            Some(key) => self.row(key),
            None => &self.buf,
        }
    }

    /// Sets every element to `value`: how tests clear a
    /// plane before they re-run tasks on it.
    ///
    /// # Safety
    /// No task of the plane's frame may be in flight, and no view of the
    /// plane may be alive.
    pub unsafe fn fill(&self, value: T)
    where
        T: Copy,
    {
        core::slice::from_raw_parts_mut(self.buf.ptr.as_ptr(), self.buf.len).fill(value)
    }
}

/// The panic of a view a plane does not have: out of line, with its
/// arguments by value, so a view's check costs only its compares.
#[cold]
#[inline(never)]
fn out_of_plane<K: RowKey>(key: K, start: usize, len: usize, keys: K, row_len: usize) -> ! {
    panic!("row {key:?}, {len} columns from {start}: out of a plane of {keys:?} rows of {row_len}")
}

/// Zero-copy packet retention for one in-flight frame: one slot per
/// `[symbol][antenna]`, holding the whole received packet (header +
/// payload) until the frame retires. FFT tasks read the IQ payload as a
/// borrowed view straight out of the receive buffer — pooled or heap —
/// so intake never copies sample bytes.
///
/// # Safety contract
/// The scheduler contract of the planes, with the network thread as the
/// *sole* writer ([`Self::store`] / [`Self::clear_all`]): it only clears a
/// slot table after observing (Acquire on `min_frame`) that the previous
/// occupant frame retired, and only stores into unoccupied entries.
/// Readers ([`Self::payload`]) run strictly after the store that filled
/// the entry, ordered by the task-queue release/acquire edge that
/// dispatched them, and never survive frame retirement.
pub(crate) struct PacketSlots {
    slots: Box<[UnsafeCell<Option<PacketBuf>>]>,
    keys: (usize, usize),
}

// SAFETY: see the contract above — entries are written by a single writer
// thread while no reader can see them, read after the filling store by
// queue edges, and cleared after every read by frame retirement; `keys`
// is never written after construction.
unsafe impl Sync for PacketSlots {}

impl PacketSlots {
    fn new(keys: (usize, usize)) -> Self {
        Self { slots: (0..RowKey::rows(keys)).map(|_| UnsafeCell::new(None)).collect(), keys }
    }

    /// The entry of `(symbol, ant)`, asserted inside the table.
    fn slot(&self, symbol: usize, ant: usize) -> &UnsafeCell<Option<PacketBuf>> {
        let key = (symbol, ant);
        let Some(i) = key.row(self.keys) else {
            panic!("packet {key:?} out of slot table {:?}", self.keys)
        };
        &self.slots[i]
    }

    /// True when a packet is retained at `(symbol, ant)`. Called by the
    /// writer only, whose single-writer rule makes the answer exact.
    pub(crate) fn occupied(&self, symbol: usize, ant: usize) -> bool {
        // SAFETY: the caller is the sole writer, so no write races this read.
        unsafe { (*self.slot(symbol, ant).get()).is_some() }
    }

    /// Retains `pkt` at `(symbol, ant)`. Storing over an occupied entry
    /// drops the previous packet.
    ///
    /// # Safety
    /// Caller is the sole writer thread and no reader holds a view of the
    /// entry (no task was dispatched for it, or the caller has exclusive
    /// access to the whole table).
    pub(crate) unsafe fn store(&self, symbol: usize, ant: usize, pkt: PacketBuf) {
        *self.slot(symbol, ant).get() = Some(pkt);
    }

    /// The IQ payload (bytes after the 64-byte header) of the packet at
    /// `(symbol, ant)`. Panics when none arrived: the FFT task that reads
    /// it is only dispatched once it has.
    pub(crate) fn payload(&self, symbol: usize, ant: usize) -> &[u8] {
        // SAFETY: by the contract above the entry was stored before this
        // reader was dispatched and is neither stored nor cleared again
        // before the frame retires.
        let pkt = unsafe { &*self.slot(symbol, ant).get() };
        &pkt.as_ref().expect("missing packet for dispatched task")[HEADER_LEN..]
    }

    /// Drops every retained packet (returning pooled buffers to their
    /// pool).
    ///
    /// # Safety
    /// Caller is the sole writer thread and no reader can touch this
    /// table: its frame retired (min_frame advanced past it) or the
    /// engine is quiescent.
    pub(crate) unsafe fn clear_all(&self) {
        for slot in self.slots.iter() {
            *slot.get() = None;
        }
    }
}

/// All shared buffers for one in-flight frame, each plane keyed the way
/// the frame graph orders its writers (DESIGN.md §4.4 has writer and
/// readers per row):
/// * `rx_pkts[symbol][antenna]` — retained received packets (zero-copy
///   payload views for the FFT stage).
/// * `freq[symbol]` — active subcarriers of every antenna,
///   `[block][antenna][block sc]` ([`BufferGeometry::sc_col`]): a demod
///   block's antenna samples are whole cache lines, contiguous per
///   antenna.
/// * `dl_mod[symbol]` — the modulated user symbols of a downlink
///   symbol, `[block][user][block sc]` ([`BufferGeometry::mod_cols`]): a
///   precode task writes each of its blocks' `K` user rows as one run,
///   and every IFFT task of the symbol reads the whole row, the `B` of
///   its antennas' precoding GEMMs.
/// * `csi[group]` — the group's `M x K` channel estimate, row-major,
///   written by the pilot FFT tasks; `det[group]` (`K x M`) and
///   `pre[group]` (`M x K`) — ZF's detector and power-normalised
///   precoder; `inv_noise[group]` — per user, the reciprocal of the noise
///   variance behind the detector, which demodulation scales LLRs by.
/// * `llr[symbol][user]` — demodulated soft bits, quantised to `i8` for
///   the fixed-point decoder; `decoded[symbol][user]` and
///   `decode_ok[symbol][user]` (one flag); `dl_bits[symbol][user]` — the
///   coded bits packed, bit `j` in bit `j % 8` of byte `j / 8`.
/// * `dl_time[symbol]` — every antenna's time-domain samples, back to
///   back.
pub struct FrameBuffers {
    /// Retained received packets per (symbol, antenna).
    pub(crate) rx_pkts: PacketSlots,
    /// Frequency-domain samples per data/pilot symbol.
    pub freq: Plane<Cf32>,
    /// Channel estimates, one `M x K` matrix per ZF group.
    pub csi: Plane<Cf32>,
    /// Uplink detectors.
    pub det: Plane<Cf32>,
    /// Downlink precoders.
    pub pre: Plane<Cf32>,
    /// `1 / max(noise * ||w_u||^2, 1e-12)` per (ZF group, user): the
    /// post-detection noise scale, written once per frame by the group's
    /// ZF task and read by every demodulation block of the group.
    pub inv_noise: Plane<f32>,
    /// Soft demodulator output, quantised.
    pub llr: Plane<i8, (usize, usize)>,
    /// Decoded information bits.
    pub decoded: Plane<u8, (usize, usize)>,
    /// Per-(symbol, user) decode success flag (1 = CRC/syndrome pass).
    pub decode_ok: Plane<u8, (usize, usize)>,
    /// Downlink coded bits per (symbol, user), eight to a byte.
    pub dl_bits: Plane<u8, (usize, usize)>,
    /// Downlink modulated user symbols per symbol, block by block.
    pub dl_mod: Plane<Cf32>,
    /// Downlink time-domain samples per symbol.
    pub dl_time: Plane<Cf32>,
}

impl FrameBuffers {
    /// The decoded bits and decode-success flags of `uplink` symbols, per
    /// `[symbol][user]` (other symbols stay empty). Read out of a finished
    /// frame: no decode task of it may be in flight.
    pub(crate) fn read_decoded(&self, uplink: &[usize]) -> (Vec<Vec<Vec<u8>>>, Vec<Vec<bool>>) {
        let (symbols, users) = self.decoded.keys;
        let mut decoded = vec![Vec::new(); symbols];
        let mut decode_ok = vec![Vec::new(); symbols];
        for &symbol in uplink {
            for user in 0..users {
                decoded[symbol].push(self.decoded.row((symbol, user)).to_vec());
                decode_ok[symbol].push(self.decode_ok.row((symbol, user))[0] != 0);
            }
        }
        (decoded, decode_ok)
    }
}

/// The frame's dimensions, and the column layout within the rows of the
/// planes that hold more than one antenna or block per row.
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

/// A run of active subcarriers that is consecutive in the FFT grid and
/// lies inside one demod block: `len` subcarriers at grid bins `bin..bin +
/// len`. With the block a cache line and the band split on a block
/// boundary, every piece is one line of a `freq` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Piece {
    pub(crate) bin: usize,
    pub(crate) len: usize,
    /// Column of its first subcarrier's antenna-0 sample.
    off: usize,
}

impl BufferGeometry {
    /// Column of subcarrier `sc` of antenna `ant` in a `freq` row:
    /// `[block][antenna][block sc]`.
    pub(crate) fn sc_col(&self, sc: usize, ant: usize) -> usize {
        (sc / self.block * self.m + ant) * self.block + sc % self.block
    }

    /// Columns of block `blk`, every user, in a `dl_mod` row: what a
    /// precode task writes per block, and the `K x block` operand an IFFT
    /// task's GEMM reads for it.
    pub(crate) fn mod_cols(&self, blk: usize) -> Range<usize> {
        let width = self.k * self.block;
        blk * width..(blk + 1) * width
    }

    /// Columns of demod block `blk`, every antenna, in a `freq` row: what
    /// a demod task reads per block.
    pub fn block_cols(&self, blk: usize) -> Range<usize> {
        let width = self.m * self.block;
        blk * width..(blk + 1) * width
    }

    /// The blocks of a demod or precode task over subcarriers `sc_base..
    /// sc_base + count`. Panics, in release too, unless they are whole
    /// blocks of the band: a task that started or ended inside a block
    /// would write a neighbour's columns.
    pub(crate) fn task_blocks(&self, sc_base: usize, count: usize) -> Range<usize> {
        assert!(
            sc_base.is_multiple_of(self.block)
                && count.is_multiple_of(self.block)
                && sc_base + count <= self.q,
            "task splits a block"
        );
        sc_base / self.block..(sc_base + count) / self.block
    }

    /// Cuts runs of active subcarriers — `(first subcarrier, its FFT
    /// bins)`, as `SubcarrierMap::active_runs` gives them — into
    /// [`Piece`]s, splitting each where it crosses a block boundary.
    pub(crate) fn pieces(
        &self,
        runs: impl IntoIterator<Item = (usize, Range<usize>)>,
    ) -> Vec<Piece> {
        let mut pieces = Vec::new();
        for (sc0, bins) in runs {
            let mut done = 0;
            while done < bins.len() {
                let sc = sc0 + done;
                let len = (self.block - sc % self.block).min(bins.len() - done);
                pieces.push(Piece { bin: bins.start + done, len, off: self.sc_col(sc, 0) });
                done += len;
            }
        }
        pieces
    }

    /// Columns of antenna `ant`'s share of `p` in a `freq` row: within a
    /// block, antenna `a`'s samples sit `a * block` after antenna 0's. The
    /// FFT task takes `ant` from a checked call, its payload's.
    #[inline]
    pub(crate) fn piece_cols(&self, p: &Piece, ant: usize) -> Range<usize> {
        let start = p.off + ant * self.block;
        start..start + p.len
    }

    /// Columns of antennas `ants` in a `dl_time` row: a row holds its
    /// antennas' samples back to back.
    pub(crate) fn antenna_cols(&self, ants: Range<usize>) -> Range<usize> {
        ants.start * self.samples..ants.end * self.samples
    }
}

/// The window of in-flight frame buffers, indexed by `frame % window`.
pub struct FrameWindow {
    slots: Vec<FrameBuffers>,
}

impl FrameWindow {
    /// Allocates `window` zeroed frame slots of geometry `g`.
    pub fn new(g: BufferGeometry, window: usize) -> Self {
        assert!(window >= 2);
        let groups = g.q.div_ceil(g.zf_group);
        let users = (g.symbols, g.k);
        let frame = || FrameBuffers {
            rx_pkts: PacketSlots::new((g.symbols, g.m)),
            freq: Plane::zeroed(g.symbols, g.q * g.m),
            csi: Plane::zeroed(groups, g.m * g.k),
            det: Plane::zeroed(groups, g.k * g.m),
            pre: Plane::zeroed(groups, g.m * g.k),
            inv_noise: Plane::zeroed(groups, g.k),
            llr: Plane::zeroed(users, g.cap_bits),
            decoded: Plane::zeroed(users, g.info_bits),
            decode_ok: Plane::zeroed(users, 1),
            dl_bits: Plane::zeroed(users, g.cap_bits.div_ceil(8)),
            dl_mod: Plane::zeroed(g.symbols, g.q * g.k),
            dl_time: Plane::zeroed(g.symbols, g.m * g.samples),
        };
        Self { slots: (0..window).map(|_| frame()).collect() }
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
    use proptest::prelude::*;
    use std::panic::AssertUnwindSafe;

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

    /// The three calls and the quiescent view see one plane: what
    /// `row_mut` and `store` write, `row` and `view` read, at the place
    /// the `[symbol][user]` key names.
    #[test]
    fn plane_calls_read_what_they_wrote() {
        let p = Plane::<u8, (usize, usize)>::zeroed((3, 2), 5);
        assert_eq!((p.row_len, p.buf.len()), (5, 30));
        p.row_mut((1, 0), ..).fill(7);
        p.row_mut((1, 1), 2..4).fill(9);
        p.store((2, 1), 4, 5);
        assert_eq!(p.row((1, 0)), &[7; 5]);
        assert_eq!(p.row((1, 1)), &[0, 0, 9, 9, 0]);
        assert_eq!(p.row((2, 1))[4], 5);
        // SAFETY: single-threaded, no other view alive.
        unsafe {
            assert_eq!(p.view(Some((1, 1))), p.row((1, 1)));
            assert_eq!(p.view(None)[10..15], [7; 5]);
            assert_eq!(p.view(None)[29], 5);
            p.fill(1);
            assert!(p.view(None).iter().all(|&x| x == 1));
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
        let empty = Plane::<Cf32>::zeroed(0, 8);
        assert!(empty.buf.is_empty() && is_line_aligned(empty.buf.as_ptr()));
    }

    /// A view past its row's end — or of a row the plane does not have —
    /// panics instead of handing out a neighbour's memory.
    #[test]
    #[should_panic(expected = "row 0, 5 columns from 4: out of a plane of 2 rows of 8")]
    fn shared_vec_rejects_a_view_past_the_end() {
        let p = Plane::<u8>::zeroed(2, 8);
        let (start, end) = (5, 4);
        for caught in [
            std::panic::catch_unwind(|| p.row(2).len()),
            std::panic::catch_unwind(|| p.row_mut(1, start..end).len()),
            std::panic::catch_unwind(|| p.store(1, 8, 0)).map(|()| 0),
        ] {
            assert!(caught.is_err(), "a view out of the plane was handed out");
        }
        let _ = p.row_mut(0, 4..9);
    }

    /// The base of every plane is on a cache line, for each element type
    /// the frame uses, whatever the allocator did before: also for the
    /// second window built after the first was dropped (its blocks come
    /// from the free lists, not from fresh pages).
    #[test]
    fn every_frame_plane_starts_on_a_cache_line() {
        fn check(fb: &FrameBuffers, what: &str) {
            let cf32 = [&fb.freq, &fb.csi, &fb.det, &fb.pre, &fb.dl_mod, &fb.dl_time];
            for (i, plane) in cf32.into_iter().enumerate() {
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

    /// Threads writing disjoint columns of one row, and storing single
    /// elements of another, leave exactly what each wrote.
    #[test]
    fn plane_disjoint_writes_from_threads() {
        let p = Plane::<f32>::zeroed(2, 1000);
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                s.spawn(move || {
                    for (i, x) in p.row_mut(0, t * 250..(t + 1) * 250).iter_mut().enumerate() {
                        *x = (t * 250 + i) as f32;
                    }
                    (t..1000).step_by(4).for_each(|col| p.store(1, col, col as f32));
                });
            }
        });
        for row in 0..2 {
            assert!(p.row(row).iter().enumerate().all(|(i, &x)| x == i as f32), "row {row}");
        }
    }

    #[test]
    fn packet_slots_store_and_view_roundtrip() {
        use agora_fronthaul::{encode, PacketDir, PacketHeader};
        let g = geom();
        let w = FrameWindow::new(g, 2);
        let fb = w.slot(0);
        let payload: Vec<u8> = (0..g.samples * 3).map(|i| i as u8).collect();
        let hdr = PacketHeader {
            frame: 7,
            symbol: 1,
            antenna: 2,
            dir: PacketDir::Uplink,
            cell: 3,
            payload_len: payload.len() as u32,
        };
        assert!(!fb.rx_pkts.occupied(1, 2));
        // SAFETY: single-threaded test — no concurrent access.
        unsafe { fb.rx_pkts.store(1, 2, PacketBuf::Heap(encode(&hdr, &payload))) };
        assert!(fb.rx_pkts.occupied(1, 2) && !fb.rx_pkts.occupied(0, 0));
        assert_eq!(fb.rx_pkts.payload(1, 2), &payload[..]);
        let caught =
            std::panic::catch_unwind(AssertUnwindSafe(|| fb.rx_pkts.payload(1, g.m).len()));
        assert!(caught.is_err(), "antenna M handed out");
        // SAFETY: as above.
        unsafe { fb.rx_pkts.clear_all() };
        assert!(!fb.rx_pkts.occupied(1, 2));
    }

    /// Sorted spans tile `0..len`: each starts where the last ended.
    fn tile(mut spans: Vec<Range<usize>>, len: usize) -> bool {
        spans.sort_by_key(|r| r.start);
        let end = spans.iter().try_fold(0, |at, r| (r.start == at).then_some(r.end));
        end == Some(len)
    }

    /// Where every row of `plane` sits, in elements from its base.
    fn row_spans<T, K: RowKey>(plane: &Plane<T, K>, keys: &[K]) -> Vec<Range<usize>> {
        let base = plane.buf.as_ptr();
        keys.iter()
            .map(|&key| {
                let row = plane.row(key);
                // SAFETY: both pointers are into the plane's one allocation.
                let start = unsafe { row.as_ptr().offset_from(base) } as usize;
                start..start + row.len()
            })
            .collect()
    }

    fn pairs(outer: usize, inner: usize) -> Vec<(usize, usize)> {
        (0..outer).flat_map(|a| (0..inner).map(move |b| (a, b))).collect()
    }

    proptest! {
        /// The layout as one property, over random valid geometries: the
        /// rows of every plane, and the packet table's entries, tile it
        /// exactly; within a `freq` row the columns one symbol's FFT
        /// pieces take (every antenna's) and those its demod blocks take
        /// are each pairwise disjoint and cover the row, every piece
        /// inside its block at the columns `sc_col` gives its subcarriers;
        /// within a `dl_mod` row the precode blocks tile the row; the
        /// antennas of a `dl_time` row tile it.
        #[test]
        fn frame_layout_tiles_every_plane(
            array in (1usize..9, 1usize..6),
            band in (1usize..4, 1usize..40, 1usize..5),
            sizes in (1usize..5, 1usize..40, 1usize..50, 1usize..30),
        ) {
            let ((m, k), (log2_block, blocks, group_blocks)) = (array, band);
            let (symbols, samples, cap_bits, info_bits) = sizes;
            let block = 1 << log2_block;
            let q = block * blocks;
            let zf_group = block * group_blocks;
            let g = BufferGeometry { m, k, q, symbols, samples, block, zf_group, cap_bits, info_bits };
            let w = FrameWindow::new(g, 2);
            let fb = w.slot(0);
            let groups = q.div_ceil(zf_group);
            let (by_symbol, by_group) = ((0..symbols).collect::<Vec<_>>(), (0..groups).collect::<Vec<_>>());
            let by_user = pairs(symbols, k);
            for (name, plane, keys) in [
                ("freq", &fb.freq, &by_symbol),
                ("dl_mod", &fb.dl_mod, &by_symbol),
                ("dl_time", &fb.dl_time, &by_symbol),
                ("csi", &fb.csi, &by_group),
                ("det", &fb.det, &by_group),
                ("pre", &fb.pre, &by_group),
            ] {
                prop_assert!(tile(row_spans(plane, keys), plane.buf.len()), "{}", name);
            }
            prop_assert!(tile(row_spans(&fb.inv_noise, &by_group), fb.inv_noise.buf.len()));
            prop_assert!(tile(row_spans(&fb.llr, &by_user), fb.llr.buf.len()));
            for (name, plane) in [("decoded", &fb.decoded), ("decode_ok", &fb.decode_ok), ("dl_bits", &fb.dl_bits)] {
                prop_assert!(tile(row_spans(plane, &by_user), plane.buf.len()), "{}", name);
            }
            let entries = pairs(symbols, m).into_iter().map(|(s, a)| {
                let i = fb.rx_pkts.slot(s, a) as *const _ as usize - fb.rx_pkts.slots.as_ptr() as usize;
                let i = i / size_of::<UnsafeCell<Option<PacketBuf>>>();
                i..i + 1
            });
            prop_assert!(tile(entries.collect(), fb.rx_pkts.slots.len()), "rx_pkts");

            let row = q * m;
            let map = agora_fft::SubcarrierMap::new((q + 1).next_power_of_two(), q);
            let pieces = g.pieces(map.active_runs());
            let mut fft = Vec::new();
            for ant in 0..m {
                for p in &pieces {
                    let cols = g.piece_cols(p, ant);
                    let sc0 = map.active_bins().position(|bin| bin == p.bin).unwrap();
                    prop_assert!(p.len > 0 && (sc0 + p.len - 1) / block == sc0 / block, "piece {:?} splits a block", p);
                    prop_assert_eq!(cols.start, g.sc_col(sc0, ant));
                    prop_assert!(cols.clone().zip(sc0..).all(|(col, sc)| col == g.sc_col(sc, ant)));
                    fft.push(cols);
                }
            }
            prop_assert!(tile(fft, row), "FFT pieces");
            let demod = g.task_blocks(0, q).map(|blk| g.block_cols(blk)).collect();
            prop_assert!(tile(demod, row), "demod blocks");
            let precode = g.task_blocks(0, q).map(|blk| g.mod_cols(blk)).collect();
            prop_assert!(tile(precode, fb.dl_mod.row_len), "precode blocks");
            let ants = (0..m).map(|a| g.antenna_cols(a..a + 1)).collect();
            prop_assert!(tile(ants, fb.dl_time.row_len), "dl_time antennas");
        }
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
