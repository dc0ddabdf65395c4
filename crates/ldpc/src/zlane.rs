//! Z-lane layered decoding: the skeleton both decoding planes run.
//!
//! For a base entry with shift `s`, lane `i` of the check touches bit
//! `col * Z + (i + s) % Z` — the *rotated slice* of that column's
//! `Z`-block. Gathering the rotation is two contiguous copies, after
//! which every operation of offset min-sum (extrinsic subtract, abs,
//! two-minimum tracking, sign product, offset, posterior update) is a
//! pure per-lane pass over contiguous arrays. This module owns
//! everything that does not depend on the LLR type: the lifted graph
//! (per-entry `shift % Z` and column offset), the iteration and
//! early-termination loop, the rotated gather/scatter, and the syndrome
//! check. A [`Plane`] adds the lane kernel and the sign predicate.
//!
//! **Padding rule.** Row scratch and message store are strided to the
//! plane's vector width ([`Plane::LANES`]): entry `e` owns
//! `[e * stride, (e + 1) * stride)` with `stride = Z` rounded up. Lanes
//! `Z..stride` are never gathered from or scattered to a posterior; the
//! lane kernels process them like any other lane, so no kernel has a
//! tail loop, and what they hold is a function of the (zeroed) start
//! state only — identical on every SIMD tier.

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
}

/// One circulant of the lifted graph.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// First bit of the column's `Z`-block (`col * Z`).
    col: u32,
    /// Effective shift, `V mod Z`.
    shift: u16,
}

/// A base graph lifted to one `Z`, with everything the per-row loops
/// would otherwise recompute. Construction is `O(entries)`.
#[derive(Debug, Clone)]
pub(crate) struct Lifted {
    bg: &'static BaseGraph,
    z: usize,
    stride: usize,
    /// Tier the lane kernels dispatch to; supported by this CPU.
    tier: SimdTier,
    /// One per base entry, in [`BaseGraph::entries`] order.
    edges: Vec<Edge>,
}

impl Lifted {
    pub(crate) fn new(id: BaseGraphId, z: usize, lanes: usize, tier: SimdTier) -> Self {
        assert!(z >= 2, "lifting size must be at least 2");
        // The vector kernels are `unsafe` on exactly this condition.
        assert!(
            tier == SimdTier::Scalar || tier == SimdTier::cached(),
            "SIMD tier {tier:?} is not supported by this CPU"
        );
        let bg = BaseGraph::get(id);
        let edges = bg
            .entries()
            .iter()
            .map(|e| Edge {
                col: (e.col as usize * z) as u32,
                shift: (e.shift as usize % z) as u16,
            })
            .collect();
        Self { bg, z, stride: z.div_ceil(lanes) * lanes, tier, edges }
    }

    pub(crate) fn tier(&self) -> SimdTier {
        self.tier
    }

    /// Distance between consecutive entries in a message store.
    #[cfg(test)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    pub(crate) fn codeword_len(&self) -> usize {
        self.bg.cols() * self.z
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
        let max_deg = (0..self.bg.rows()).map(|r| self.row(r).len()).max().unwrap_or(0);
        max_deg * self.stride
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
}

/// The mutable planes of one decoder, borrowed for a decode.
pub(crate) struct State<'a, T> {
    /// Posterior LLRs, `[col][Z]`.
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

/// Layered decode of `llr` into `out` (hard-decision information bits,
/// one byte each). Returns `(success, iterations)`.
pub(crate) fn decode_layered<P: Plane>(
    g: &Lifted,
    st: &mut State<'_, P::Llr>,
    llr: &[P::Llr],
    offset: P::Llr,
    sched: Schedule,
    out: &mut [u8],
) -> (bool, usize) {
    assert_eq!(llr.len(), g.codeword_len(), "LLR length mismatch");
    assert_eq!(out.len(), g.info_len(), "information-bit length mismatch");
    let rows = g.active_rows(sched.active_rows);
    for (p, &l) in st.post.iter_mut().zip(llr) {
        *p = P::prior(l);
    }
    st.msgs.fill(P::Llr::default());
    st.t.fill(P::Llr::default());

    let mut iterations = 0;
    // Outcome of the syndrome pass over the current posteriors, if one ran.
    let mut checked = None;
    for _ in 0..sched.max_iters {
        iterations += 1;
        for r in 0..rows {
            layered_row::<P>(g, st, r, offset);
        }
        if sched.early_termination {
            let ok = syndrome_ok::<P>(g, st.post, st.hard, rows);
            checked = Some(ok);
            if ok {
                break;
            }
        }
    }
    let success = checked.unwrap_or_else(|| syndrome_ok::<P>(g, st.post, st.hard, rows));
    // The syndrome pass left the hard decisions of the final posteriors.
    out.copy_from_slice(&st.hard[..out.len()]);
    (success, iterations)
}

/// One layered update of base row `r`: gather the rotated posteriors,
/// run the plane's lane passes, scatter the updated posteriors back.
fn layered_row<P: Plane>(g: &Lifted, st: &mut State<'_, P::Llr>, r: usize, offset: P::Llr) {
    let (z, stride) = (g.z, g.stride);
    let row = g.row(r);
    let edges = &g.edges[row.clone()];
    for (e, tk) in edges.iter().zip(st.t.chunks_exact_mut(stride)) {
        // tk[i] = post[col + (i + shift) % z].
        let (col, shift) = (e.col as usize, e.shift as usize);
        tk[..z - shift].copy_from_slice(&st.post[col + shift..col + z]);
        tk[z - shift..z].copy_from_slice(&st.post[col..col + shift]);
    }
    P::row_update(
        g.tier,
        &mut st.t[..edges.len() * stride],
        &mut st.msgs[row.start * stride..row.end * stride],
        stride,
        offset,
    );
    for (e, tk) in edges.iter().zip(st.t.chunks_exact(stride)) {
        let (col, shift) = (e.col as usize, e.shift as usize);
        st.post[col + shift..col + z].copy_from_slice(&tk[..z - shift]);
        st.post[col..col + shift].copy_from_slice(&tk[z - shift..z]);
    }
}

/// Do the hard decisions of `post` satisfy the first `rows` base rows?
/// Refreshes `hard[..codeword_len]`; each row's parity is the XOR of its
/// entries' rotated hard-decision slices, all `Z` lanes at once, and any
/// set lane fails.
pub(crate) fn syndrome_ok<P: Plane>(
    g: &Lifted,
    post: &[P::Llr],
    hard: &mut [u8],
    rows: usize,
) -> bool {
    let z = g.z;
    let (hard, parity) = hard.split_at_mut(post.len());
    for (h, &p) in hard.iter_mut().zip(post) {
        *h = P::is_neg(p) as u8;
    }
    for r in 0..rows {
        parity.fill(0);
        for e in &g.edges[g.row(r)] {
            let (col, shift) = (e.col as usize, e.shift as usize);
            xor_into(&mut parity[..z - shift], &hard[col + shift..col + z]);
            xor_into(&mut parity[z - shift..], &hard[col..col + shift]);
        }
        if parity.iter().fold(0, |acc, &b| acc | b) != 0 {
            return false;
        }
    }
    true
}

fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a ^= s;
    }
}
