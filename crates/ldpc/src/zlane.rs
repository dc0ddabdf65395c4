//! Z-lane layered decoding: the skeleton both decoding planes run.
//!
//! For a base entry with shift `s`, lane `i` of the check touches bit
//! `(i + s) % Z` of that column's `Z`-block — the *rotated slice* of the
//! block. Gathering the rotation is two contiguous copies, after which
//! every operation of offset min-sum (extrinsic subtract, abs,
//! two-minimum tracking, sign product, offset, posterior update) is a
//! pure per-lane pass over contiguous arrays. This module owns
//! everything that does not depend on the LLR type: the lifted graph
//! (per-entry `shift % Z` and column), the iteration and
//! early-termination loop, the rotated gather/scatter, and the syndrome
//! check. A [`Plane`] adds the lane kernel and the sign predicate, and
//! may replace gather, lane passes and scatter of a row with one body
//! that rotates the blocks in registers ([`Plane::fused_row`]).
//!
//! **Padding rule.** Posteriors, row scratch and message store are
//! strided to the plane's vector width ([`Plane::LANES`]): column `c`
//! owns `post[c * stride..(c + 1) * stride]` and entry `e` owns
//! `[e * stride, (e + 1) * stride)`, with `stride = Z` rounded up. The
//! lanes `Z..stride` of all three start zero and stay zero: the priors
//! and the gather write lanes below `Z` only, nothing scatters the rest
//! back, and the lane kernels, which process them like any other lane
//! (so no kernel has a tail loop), turn a lane of zero extrinsics and
//! zero messages into zero messages and zero posteriors for any offset
//! `>= 0`. The same holds on every SIMD tier.
//!
//! **Slots.** A plane may lay out two code blocks of one `(BG, Z)` side
//! by side in one posterior and message plane ([`Lifted::slots`]):
//! column `c` then holds block `b`'s lanes at `c * stride + b *
//! slot_stride`, and [`decode_layered`] decodes up to that many blocks
//! in one pass over the rows, each with its own early exit. Lanes never
//! mix across slots — a rotation stays inside its slot, and the syndrome
//! reports each slot apart — so each block decodes exactly as it would
//! alone, and a lone block need not clear the slot a pair's second block
//! left: its lanes compute on beside it, and nothing reads them.

use crate::base_graph::{BaseGraph, BaseGraphId};
use agora_math::simd::SimdTier;

/// One LLR precision of the layered decoder.
pub(crate) trait Plane {
    /// Stored LLR / message type.
    type Llr: Copy + Default;
    /// Lanes of one 256-bit vector; strides are multiples of this.
    const LANES: usize;

    /// Hard decision: does this LLR say "bit 1"?
    fn is_neg(v: Self::Llr) -> bool;

    /// Admits one channel LLR as the initial posterior.
    fn prior(v: Self::Llr) -> Self::Llr;

    /// The two lane passes of one base row. `t` holds the row's gathered
    /// posteriors and `msgs` its stored messages, both `[degree][stride]`.
    /// Pass 1 turns `t` into the extrinsics `t - msgs` and tracks each
    /// lane's two smallest magnitudes, the position of the smallest and
    /// the sign product; pass 2 writes the new messages to `msgs` and the
    /// updated posteriors `t + msgs` back to `t`.
    fn row_update(
        tier: SimdTier,
        t: &mut [Self::Llr],
        msgs: &mut [Self::Llr],
        stride: usize,
        offset: Self::Llr,
    );

    /// Gather, [`Self::row_update`] and scatter of one base row in one
    /// body, straight on the `[col][stride]` posteriors, when the plane
    /// has one for `g`'s tier and stride: `edges` are the row's, `msgs`
    /// its stored messages. Returns false, having touched nothing, when it
    /// has none.
    fn fused_row(
        _g: &Lifted,
        _post: &mut [Self::Llr],
        _msgs: &mut [Self::Llr],
        _edges: &[Edge],
        _offset: Self::Llr,
    ) -> bool {
        false
    }

    /// The priors of `llr` (`[col][Z]`) into the lanes of slot `slot` of
    /// the `[col][stride]` posteriors `post`; the slot's padding lanes
    /// stay zero.
    fn priors(g: &Lifted, llr: &[Self::Llr], post: &mut [Self::Llr], slot: usize) {
        map_lanes(llr, g.z, &mut post[slot * g.slot_stride..], g.stride, g.z, Self::prior);
    }

    /// [`failing_slots`] without the byte plane, when the plane has such
    /// a body for `g`'s tier and lifting size: `None`, having touched
    /// nothing, when it has none.
    fn packed_syndrome(_g: &Lifted, _post: &[Self::Llr], _rows: usize, _pending: u8) -> Option<u8> {
        None
    }
}

/// One circulant of the lifted graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// Base-graph column.
    pub col: u32,
    /// Effective shift, `V mod Z`.
    pub shift: u16,
}

/// A base graph lifted to one `Z`, with everything the per-row loops
/// would otherwise recompute. Construction is `O(entries)`.
#[derive(Debug, Clone)]
pub(crate) struct Lifted {
    bg: &'static BaseGraph,
    z: usize,
    stride: usize,
    /// Code blocks one plane holds side by side (one or two),
    /// `slot_stride` lanes apart.
    slots: usize,
    slot_stride: usize,
    /// Tier the lane kernels dispatch to; supported by this CPU.
    tier: SimdTier,
    /// One per base entry, in [`BaseGraph::entries`] order.
    edges: Vec<Edge>,
}

impl Lifted {
    /// `bg` lifted to `z` for a plane of `lanes`-lane vectors holding
    /// `slots` code blocks per column.
    pub(crate) fn new(
        id: BaseGraphId,
        z: usize,
        lanes: usize,
        slots: usize,
        tier: SimdTier,
    ) -> Self {
        assert!(z >= 2, "lifting size must be at least 2");
        // The vector kernels are `unsafe` on exactly this condition.
        assert!(tier <= SimdTier::cached(), "SIMD tier {tier:?} is not supported by this CPU");
        let bg = BaseGraph::get(id);
        let edges = bg
            .entries()
            .iter()
            .map(|e| Edge { col: e.col as u32, shift: (e.shift as usize % z) as u16 })
            .collect();
        assert!(slots == 1 || slots == 2, "a plane holds one block or a pair");
        let slot_stride = z.div_ceil(lanes) * lanes;
        Self { bg, z, stride: slots * slot_stride, slots, slot_stride, tier, edges }
    }

    pub(crate) fn tier(&self) -> SimdTier {
        self.tier
    }

    pub(crate) fn z(&self) -> usize {
        self.z
    }

    /// Distance between consecutive columns of the posteriors and entries
    /// of a message store.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Code blocks a plane holds side by side.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Distance between the slots of a column: `Z` rounded up to the
    /// plane's vector width.
    pub(crate) fn slot_stride(&self) -> usize {
        self.slot_stride
    }

    /// The entries of the widest base row.
    pub(crate) fn max_degree(&self) -> usize {
        (0..self.bg.rows()).map(|r| self.row(r).len()).max().unwrap_or(0)
    }

    pub(crate) fn codeword_len(&self) -> usize {
        self.bg.cols() * self.z
    }

    /// Length of the posterior plane (`[col][stride]`).
    pub(crate) fn post_len(&self) -> usize {
        self.bg.cols() * self.stride
    }

    pub(crate) fn info_len(&self) -> usize {
        self.bg.info_cols() * self.z
    }

    /// Length of a message store (`[entry][stride]`).
    pub(crate) fn msgs_len(&self) -> usize {
        self.edges.len() * self.stride
    }

    /// Length of the row scratch (`[row slot][stride]`, widest row).
    pub(crate) fn row_scratch_len(&self) -> usize {
        self.max_degree() * self.stride
    }

    /// Length of the hard-decision plane: `[col][Z]` plus one spare
    /// `Z`-block the syndrome check accumulates a row's parity in.
    pub(crate) fn hard_len(&self) -> usize {
        self.codeword_len() + self.z
    }

    /// Active base rows for a configured limit.
    pub(crate) fn active_rows(&self, limit: Option<usize>) -> usize {
        limit.unwrap_or(self.bg.rows()).min(self.bg.rows())
    }

    /// Entry index range of base row `r`.
    pub(crate) fn row(&self, r: usize) -> core::ops::Range<usize> {
        self.bg.row_range(r)
    }

    /// The circulants of base row `r`.
    pub(crate) fn row_edges(&self, r: usize) -> &[Edge] {
        &self.edges[self.row(r)]
    }
}

/// The mutable planes of one decoder, borrowed for a decode.
pub(crate) struct State<'a, T> {
    /// Posterior LLRs, `[col][stride]`.
    pub post: &'a mut [T],
    /// Check-to-variable messages, `[entry][stride]`.
    pub msgs: &'a mut [T],
    /// Row scratch, [`Lifted::row_scratch_len`].
    pub t: &'a mut [T],
    /// Hard decisions, [`Lifted::hard_len`].
    pub hard: &'a mut [u8],
}

/// When the iteration loop stops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    pub max_iters: usize,
    pub early_termination: bool,
    pub active_rows: Option<usize>,
}

/// Layered decode of the blocks `llr` into `out` (hard-decision
/// information bits, one byte each), block `b` in slot `b`; `B` is at
/// most [`Lifted::slots`]. The slots past `B` keep whatever the last
/// pair left there: no lane of a block reads them (module docs). Returns
/// each block's `(success, iterations)`. A block whose syndrome passes
/// leaves the loop there: its result and bits are taken at that point,
/// and its lanes, which may go on computing with the other blocks', are
/// never read again.
pub(crate) fn decode_layered<P: Plane, const B: usize>(
    g: &Lifted,
    st: &mut State<'_, P::Llr>,
    llr: [&[P::Llr]; B],
    offset: P::Llr,
    sched: Schedule,
    out: [&mut [u8]; B],
) -> [(bool, usize); B] {
    assert!(B <= g.slots, "more blocks than slots");
    for (llr, out) in llr.iter().zip(&out) {
        assert_eq!(llr.len(), g.codeword_len(), "LLR length mismatch");
        assert_eq!(out.len(), g.info_len(), "information-bit length mismatch");
    }
    let rows = g.active_rows(sched.active_rows);
    for (slot, llr) in llr.iter().enumerate() {
        P::priors(g, llr, st.post, slot);
    }
    // Rows past the active ones are never read.
    let active_entries = (0..rows).last().map_or(0, |r| g.row(r).end);
    st.msgs[..active_entries * g.stride].fill(P::Llr::default());

    let mut result = [(false, 0); B];
    // Bit `b` set while block `b` is still decoding.
    let mut open = (1u8 << B) - 1;
    let mut iterations = 0;
    // The failing slots of the last syndrome pass, if one ran.
    let mut checked = None;
    for _ in 0..sched.max_iters {
        iterations += 1;
        for r in 0..rows {
            layered_row::<P>(g, st, r, offset);
        }
        if sched.early_termination {
            let failing = failing_slots::<P>(g, st.post, st.hard, rows, open);
            checked = Some(failing);
            let passed = open & !failing;
            for b in (0..B).filter(|&b| passed >> b & 1 == 1) {
                result[b] = (true, iterations);
                hard_bits::<P>(g, st.post, b, out[b]);
            }
            open &= failing;
            if open == 0 {
                break;
            }
        }
    }
    let failing = checked.unwrap_or_else(|| failing_slots::<P>(g, st.post, st.hard, rows, open));
    for b in (0..B).filter(|&b| open >> b & 1 == 1) {
        result[b] = (failing >> b & 1 == 0, iterations);
        hard_bits::<P>(g, st.post, b, out[b]);
    }
    result
}

/// The information bits of slot `slot`: the first columns' hard
/// decisions.
fn hard_bits<P: Plane>(g: &Lifted, post: &[P::Llr], slot: usize, out: &mut [u8]) {
    map_lanes(&post[slot * g.slot_stride..], g.stride, out, g.z, g.z, |p| P::is_neg(p) as u8);
}

/// One layered update of base row `r`: gather the rotated posteriors,
/// run the plane's lane passes, scatter the updated posteriors back.
fn layered_row<P: Plane>(g: &Lifted, st: &mut State<'_, P::Llr>, r: usize, offset: P::Llr) {
    let (z, stride) = (g.z, g.stride);
    let row = g.row(r);
    let edges = g.row_edges(r);
    let msgs = &mut st.msgs[row.start * stride..row.end * stride];
    if P::fused_row(g, st.post, msgs, edges, offset) {
        return;
    }
    for (e, tk) in edges.iter().zip(st.t.chunks_exact_mut(stride)) {
        // tk[i] = post[col + (i + shift) % z].
        let (col, shift) = (e.col as usize * stride, e.shift as usize);
        tk[..z - shift].copy_from_slice(&st.post[col + shift..col + z]);
        tk[z - shift..z].copy_from_slice(&st.post[col..col + shift]);
    }
    P::row_update(g.tier, &mut st.t[..edges.len() * stride], msgs, stride, offset);
    for (e, tk) in edges.iter().zip(st.t.chunks_exact(stride)) {
        let (col, shift) = (e.col as usize * stride, e.shift as usize);
        st.post[col + shift..col + z].copy_from_slice(&tk[..z - shift]);
        st.post[col..col + shift].copy_from_slice(&tk[z - shift..z]);
    }
}

/// Which slots among `pending` (bit `b` for slot `b`) hold hard
/// decisions of the `[col][stride]` posteriors `post` that fail one of
/// the first `rows` base rows, as the same kind of mask: the pass stops
/// once every pending slot has failed. Each row's parity is the XOR of
/// its entries' rotated hard-decision slices, all `Z` lanes at once, and
/// any set lane fails. Unless the plane has a body without the byte
/// plane ([`Plane::packed_syndrome`]), the slices are bytes of the plane
/// `hard[..codeword_len]` (`[col][Z]`), which this refreshes; that path
/// takes one slot.
pub(crate) fn failing_slots<P: Plane>(
    g: &Lifted,
    post: &[P::Llr],
    hard: &mut [u8],
    rows: usize,
    pending: u8,
) -> u8 {
    if let Some(failing) = P::packed_syndrome(g, post, rows, pending) {
        return failing;
    }
    assert_eq!(g.slots, 1, "the byte syndrome checks one slot");
    let z = g.z;
    let (hard, parity) = hard.split_at_mut(g.codeword_len());
    map_lanes(post, g.stride, hard, z, z, |p| P::is_neg(p) as u8);
    for r in 0..rows {
        parity.fill(0);
        for e in g.row_edges(r) {
            let (col, shift) = (e.col as usize * z, e.shift as usize);
            xor_into(&mut parity[..z - shift], &hard[col + shift..col + z]);
            xor_into(&mut parity[z - shift..], &hard[col..col + shift]);
        }
        if parity.iter().fold(0, |acc, &b| acc | b) != 0 {
            return pending & 1;
        }
    }
    0
}

/// `dst[c * dst_stride + i] = f(src[c * src_stride + i])` for every lane
/// `i < z` of every column both hold: between a `[col][Z]` array and a
/// `[col][stride]` plane, either way. Moves `W` lanes at a time, the
/// widest of 16, 8 and 1 that fits in `z`, a column's last chunk ending
/// at `z` and overlapping the one before it, so the copy vectorises at
/// any `Z` and touches no lane past `z`. A plane may start at a slot's
/// lanes, so its last column is cut short after `z`.
fn map_lanes<T: Copy, U: Copy>(
    src: &[T],
    src_stride: usize,
    dst: &mut [U],
    dst_stride: usize,
    z: usize,
    f: impl Fn(T) -> U,
) {
    fn by<T: Copy, U: Copy, const W: usize>(
        src: &[T],
        src_stride: usize,
        dst: &mut [U],
        dst_stride: usize,
        z: usize,
        f: impl Fn(T) -> U,
    ) {
        for (s, d) in src.chunks(src_stride).zip(dst.chunks_mut(dst_stride)) {
            let (s, d) = (&s[..z], &mut d[..z]);
            for (s, d) in s.chunks_exact(W).zip(d.chunks_exact_mut(W)) {
                let (s, d): (&[T; W], &mut [U; W]) = (s.try_into().unwrap(), d.try_into().unwrap());
                for l in 0..W {
                    d[l] = f(s[l]);
                }
            }
            if !z.is_multiple_of(W) {
                let s: &[T; W] = s[z - W..].try_into().unwrap();
                let d: &mut [U; W] = (&mut d[z - W..]).try_into().unwrap();
                for l in 0..W {
                    d[l] = f(s[l]);
                }
            }
        }
    }
    match z {
        16.. => by::<T, U, 16>(src, src_stride, dst, dst_stride, z, f),
        8.. => by::<T, U, 8>(src, src_stride, dst, dst_stride, z, f),
        _ => by::<T, U, 1>(src, src_stride, dst, dst_stride, z, f),
    }
}

fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a ^= s;
    }
}
