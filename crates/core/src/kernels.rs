//! Task bodies — what a worker actually executes for each task type.
//!
//! One [`Kernels`] instance per engine holds the immutable plans (FFT
//! twiddles, GEMM dispatch, pilot references); each worker additionally
//! owns a [`WorkerScratch`] with its decoder state and staging buffers so
//! task execution never allocates. The same kernels serve the threaded
//! engine, the multi-cell deployment and the inline single-threaded
//! processor — the schedulers differ, the math does not.

use crate::buffers::{AlignedBuf, BufferGeometry, FrameBuffers};
use crate::config::EngineConfig;
use crate::state::FrameShape;
use agora_fft::{Direction, FftPlan, SubcarrierMap};
use agora_ldpc::{DecodeConfig, DecodeConfigI8, Decoder, DecoderI8, Encoder, RateMatch};
use agora_math::simd::{conj_transpose, stream_copy, stream_fence, SimdTier};
use agora_math::{
    gram_accumulate_with_tier, gram_reduce, normalize_precoder_in_place, pinv_from_gram_slice_into,
    CMat, Cf32, Gemm, PinvMethod, PinvScratch,
};
use agora_phy::demod::{demod_soft_i8, demod_soft_simd};
use agora_phy::frame::SymbolType;
use agora_phy::iq::{unpack_sample, BYTES_PER_SAMPLE};
use agora_phy::modulation::{map_symbol, ModScheme};
use agora_phy::pilots::PilotPlan;
use agora_phy::ClusterPlan;

/// Immutable, shared kernel state.
pub struct Kernels {
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Buffer geometry derived from the cell.
    pub geom: BufferGeometry,
    /// Task fan-out of one frame (what the schedulers expand and count).
    pub shape: FrameShape,
    fft: FftPlan,
    map: SubcarrierMap,
    /// The active subcarriers as the line-sized moves between a
    /// transform grid and the `[block][antenna][8 sc]` plane.
    pieces: Vec<Piece>,
    pilots: PilotPlan,
    /// Frame symbol index of each pilot, by pilot ordinal.
    pilot_symbols: Vec<usize>,
    /// Per pilot ordinal, per subcarrier: the user observed there and the
    /// reciprocal of its reference, `(user, p.inv())` — what the fused LS
    /// estimate multiplies by. Empty for a pilot symbol no user owns.
    pilot_table: Vec<Vec<(u32, Cf32)>>,
    rate_match: RateMatch,
    encoder: Encoder,
    /// Planned GEMM for equalization (`K x M x block`).
    eq_gemm: Gemm,
    /// Planned GEMM for precoding (`M x K x block`).
    pre_gemm: Gemm,
    /// Tier the streaming stores and the beamforming matrix kernels (ZF
    /// pinv, equalize GEMV, precode) dispatch to.
    tier: SimdTier,
    /// Coded bits actually carried per (symbol, user).
    coded_bits: usize,
}

/// The decoding plane a worker runs — the one its configuration uses —
/// with the staging buffer rate matching re-inflates received LLRs into.
enum DecodePlane {
    F32 {
        decoder: Decoder,
        full_llr: Vec<f32>,
    },
    /// `quantized_decoder`: fixed-point decoder reading the quantised
    /// LLR plane.
    I8 {
        decoder: DecoderI8,
        full_llr: Vec<i8>,
    },
}

/// A run of active subcarriers that is consecutive in the FFT grid and
/// lies inside one demod block: `len` subcarriers at grid bins
/// `bin..bin + len`, at offset `off` of antenna 0's share of the block
/// layout (antenna `a` is `a * block` further on). With the block a cache
/// line and the band split on a block boundary, every piece is one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    bin: usize,
    len: usize,
    off: usize,
}

/// Per-worker mutable scratch: decoder state and staging buffers.
pub struct WorkerScratch {
    /// The one transform buffer: up to `max(batch.fft, batch.ifft)`
    /// transform-sized grids back to back, line-aligned, so one
    /// `execute_batch_prereversed` call covers a whole (I)FFT task and
    /// the task's loads and stores never straddle a line.
    grid: AlignedBuf<Cf32>,
    ant_block: Vec<Cf32>,
    user_block: Vec<Cf32>,
    llr_tmp: Vec<f32>,
    llr_i8_tmp: Vec<i8>,
    /// ZF scratch: channel matrix (`M x K`), detector (`K x M`), precoder
    /// (`M x K`) and pseudo-inverse intermediates, reused across groups so
    /// the ZF task never allocates.
    zf_h: CMat,
    zf_det: CMat,
    zf_pre: CMat,
    zf_pinv: PinvScratch,
    /// Conjugate-transpose staging for one cluster's partial Gram
    /// (`K x max_len` under the balanced antenna split) — the partitioned
    /// ZF path's per-cluster `H_c^H` operand.
    zf_part_ah: Vec<Cf32>,
    /// Reduce-shard solve staging: one `K x width` matrix per distinct
    /// shard width (at most two under the balanced split). Empty when the
    /// reduce is unsharded — the full-width solve lands in `zf_det`.
    zf_shard: Vec<CMat>,
    decode: DecodePlane,
}

impl Kernels {
    /// Builds kernels for a validated engine configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.validate().expect("invalid engine configuration");
        let cell = &cfg.cell;
        let geom = BufferGeometry {
            m: cell.num_antennas,
            k: cell.num_users,
            q: cell.num_data_sc,
            symbols: cell.symbols_per_frame(),
            samples: cell.samples_per_symbol(),
            block: cfg.demod_block,
            zf_group: cell.zf_group,
            clusters: cfg.antenna_clusters,
            cap_bits: cell.bits_per_symbol_per_user(),
            info_bits: cell.info_bits_per_symbol(),
        };
        let fft = FftPlan::new(cell.fft_size);
        let map = SubcarrierMap::new(cell.fft_size, cell.num_data_sc);
        let pieces = block_pieces(&map, &geom);
        let pilots = PilotPlan::new(cell.pilot_scheme, cell.num_users, cell.num_data_sc);
        let pilot_symbols = cell.schedule.pilot_indices();
        let pilot_table = (0..pilot_symbols.len())
            .map(|ordinal| {
                (0..geom.q)
                    .map_while(|sc| pilots.owner(ordinal, sc))
                    .map(|(user, p)| (user as u32, p.inv()))
                    .collect()
            })
            .collect();
        let rate_match = cell.ldpc.rate_match();
        let encoder = Encoder::new(cell.ldpc.base_graph, cell.ldpc.z);
        // Every beamforming product runs on the detected tier (the
        // kernels are bit-identical across tiers).
        let tier = SimdTier::cached();
        let eq_gemm = Gemm::plan_with_tier(geom.k, geom.m, geom.block, tier);
        let pre_gemm = Gemm::plan_with_tier(geom.m, geom.k, geom.block, tier);
        let coded_bits = cell.coded_bits_per_symbol();
        let shape = FrameShape::new(cell, cfg.antenna_clusters);
        Self {
            cfg,
            geom,
            shape,
            fft,
            map,
            pieces,
            pilots,
            pilot_symbols,
            pilot_table,
            rate_match,
            encoder,
            eq_gemm,
            pre_gemm,
            tier,
            coded_bits,
        }
    }

    /// Creates a fresh per-worker scratch.
    pub fn scratch(&self) -> WorkerScratch {
        let g = &self.geom;
        let ldpc = &self.cfg.cell.ldpc;
        WorkerScratch {
            grid: AlignedBuf::zeroed(
                self.cfg.batch.fft.max(self.cfg.batch.ifft).max(1) * self.cfg.cell.fft_size,
            ),
            ant_block: vec![Cf32::ZERO; g.m * g.block],
            user_block: vec![Cf32::ZERO; g.k * g.block],
            llr_tmp: Vec::with_capacity(g.zf_group * 8),
            llr_i8_tmp: Vec::with_capacity(g.zf_group * 8),
            zf_h: CMat::zeros(g.m, g.k),
            zf_det: CMat::zeros(g.k, g.m),
            zf_pre: CMat::zeros(g.m, g.k),
            zf_pinv: PinvScratch::with_tier(g.m, g.k, self.tier),
            zf_part_ah: vec![Cf32::ZERO; g.k * ClusterPlan::new(g.m, g.clusters).max_len()],
            zf_shard: {
                let shards = self.shape.zf_reduce_shards;
                if shards > 1 {
                    let plan = ClusterPlan::new(g.m, shards);
                    let mut widths: Vec<usize> = (0..shards).map(|i| plan.range(i).len()).collect();
                    widths.dedup();
                    widths.into_iter().map(|w| CMat::zeros(g.k, w)).collect()
                } else {
                    Vec::new()
                }
            },
            // Last: its size depends on the configured plane, and the
            // buffers above should land the same either way.
            decode: if self.cfg.quantized_decoder {
                DecodePlane::I8 {
                    decoder: DecoderI8::new(ldpc.base_graph, ldpc.z),
                    full_llr: vec![0; self.rate_match.codeword_len()],
                }
            } else {
                DecodePlane::F32 {
                    decoder: Decoder::new(ldpc.base_graph, ldpc.z),
                    full_llr: vec![0.0; self.rate_match.codeword_len()],
                }
            },
        }
    }

    /// The rate-matching plan.
    pub fn rate_match(&self) -> &RateMatch {
        &self.rate_match
    }

    /// The pilot plan.
    pub fn pilots(&self) -> &PilotPlan {
        &self.pilots
    }

    /// Coded bits carried per (symbol, user).
    pub fn coded_bits(&self) -> usize {
        self.coded_bits
    }

    /// Which pilot-symbol ordinal a frame symbol index is (0-based among
    /// pilots); only valid for pilot symbols.
    pub fn pilot_ordinal(&self, symbol: usize) -> usize {
        self.pilot_symbols.iter().position(|&s| s == symbol).expect("symbol is not a pilot")
    }

    /// FFT task (uplink) for one antenna: [`Self::fft_batch_task`] with a
    /// batch of one.
    ///
    /// # Safety contract
    /// Requires exclusive ownership of this (symbol, antenna)'s output
    /// regions, guaranteed by the scheduler.
    pub fn fft_task(&self, fb: &FrameBuffers, s: &mut WorkerScratch, symbol: usize, ant: usize) {
        self.fft_batch_task(fb, s, symbol, ant, 1)
    }

    /// FFT task (uplink) for `count` consecutive antennas from `base`:
    /// unpack each antenna's payload, transform them all, then either
    /// estimate CSI (pilot symbols — the FFT+CSI fusion of Table 2) or
    /// store frequency-domain data for demodulation.
    ///
    /// Both ends of the transform are fused into it. In front, IQ unpack,
    /// cyclic-prefix skip and the bit-reversal permutation are one
    /// gather-on-copy pass ([`unpack_bitrev`]), after which one
    /// [`FftPlan::execute_batch_prereversed`] call runs the butterflies of
    /// the whole batch (the SIMD kernel amortises twiddle loads across
    /// transforms). Behind, `fft_store` moves the active bins straight
    /// from the grid into the frame plane. The output does not depend on
    /// how antennas are grouped into batches.
    pub fn fft_batch_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        symbol: usize,
        base: usize,
        count: usize,
    ) {
        let g = &self.geom;
        let n = self.cfg.cell.fft_size;
        assert!(count * n <= s.grid.len(), "batch exceeds scratch capacity");
        // The emulated RRU sends CP-less symbols; any leading samples
        // beyond the FFT size are the (empty) prefix and are skipped by
        // the fused gather.
        let skip = g.samples - n;
        for (i, grid) in s.grid.chunks_exact_mut(n).take(count).enumerate() {
            // SAFETY: the scheduler dispatched every antenna of this
            // batch, so its packet slot is occupied and no longer
            // written; the view lives only for this task.
            let payload = unsafe { fb.rx_payload_view(g, symbol, base + i) };
            unpack_bitrev(payload, skip, self.fft.bitrev(), grid);
        }
        self.fft.execute_batch_prereversed(&mut s.grid[..count * n], Direction::Forward);
        for (i, grid) in s.grid.chunks_exact(n).take(count).enumerate() {
            self.fft_store(fb, symbol, base + i, grid);
        }
        // The one fence of a task body, after its last `stream_copy`: the
        // completion message's release store does not order streaming
        // stores, and that message is what publishes the plane to the
        // consuming task.
        stream_fence();
    }

    /// Post-FFT store, straight from the transformed `grid` of `(symbol,
    /// ant)`: CSI estimation for pilots, frequency-plane write for uplink
    /// data. Demapping the active bins is part of the store — the active
    /// subcarriers are two runs of consecutive bins, so they move a line
    /// at a time with no staging copy.
    fn fft_store(&self, fb: &FrameBuffers, symbol: usize, ant: usize, grid: &[Cf32]) {
        let g = &self.geom;
        match self.cfg.cell.schedule.symbol(symbol) {
            SymbolType::Pilot => {
                // Fused channel estimation: LS divide by the known pilot.
                let refs = &self.pilot_table[self.pilot_ordinal(symbol)];
                for (sc0, bins) in self.map.active_runs() {
                    let run = refs.iter().skip(sc0).zip(&grid[bins]);
                    for (sc, (&(user, inv), &y)) in (sc0..).zip(run) {
                        // Element-precise write: concurrent FFT tasks for
                        // other antennas target different indices of the
                        // same subcarrier's CSI block.
                        let idx = fb.csi_range(sc).start + ant * g.k + user as usize;
                        unsafe { fb.csi.write(idx, y * inv) };
                    }
                }
            }
            SymbolType::Uplink => {
                let sym_base = fb.freq_symbol_range(symbol).start;
                for p in &self.pieces {
                    // Block layout: [block][antenna][8 sc] — exactly this
                    // antenna's window of each block, so concurrent
                    // antennas never alias.
                    let off = sym_base + p.off + ant * g.block;
                    // SAFETY: this task owns `(symbol, ant)`'s elements of
                    // the plane. Where they share a line with another
                    // antenna's, `stream_copy` writes it with cached stores.
                    let out = unsafe { fb.freq.slice_mut(off..off + p.len) };
                    stream_copy(&grid[p.bin..p.bin + p.len], out, self.tier);
                }
            }
            _ => {}
        }
    }

    /// Completes the CSI rows the ZF stage reads, after all pilot FFTs
    /// are done; the manager runs it inline between pilot completion and
    /// ZF dispatch, so it is on every frame's critical path. With
    /// frequency-orthogonal pilots each user is only observed every K-th
    /// subcarrier; copy the nearest estimate (flat-channel assumption, as
    /// the paper's emulation). Only the first subcarrier of each ZF group
    /// is ever read (`zf_task`, `gram_partial_task`, `zf_reduce_task`),
    /// so only those rows are filled in: `q / zf_group` of `q`.
    pub fn interpolate_csi(&self, fb: &FrameBuffers) {
        if self.pilots.scheme() == agora_phy::PilotScheme::TimeOrthogonal {
            return;
        }
        let g = &self.geom;
        let k = g.k;
        for sc in (0..g.q).step_by(g.zf_group) {
            let anchor = (sc / k) * k; // first subcarrier of this K-group
            for user in 0..k {
                let src_sc = anchor + user;
                if src_sc == sc || src_sc >= g.q {
                    continue;
                }
                // SAFETY: no task of this frame runs between the pilot
                // stage and ZF dispatch, and the two rows are distinct.
                let src = unsafe { fb.csi.slice(fb.csi_range(src_sc)) };
                let dst = unsafe { fb.csi.slice_mut(fb.csi_range(sc)) };
                for ant in 0..g.m {
                    dst[ant * k + user] = src[ant * k + user];
                }
            }
        }
    }

    /// ZF task: compute detector and precoder for one subcarrier group.
    /// Forms the whole array's Gram — the kernel pair
    /// [`Self::gram_partial_task`] runs per cluster — and hands over to
    /// `zf_solve_publish`, the tail it shares with
    /// [`Self::zf_reduce_task`]. Allocation-free: the channel copy,
    /// pseudo-inverse intermediates, detector and precoder all live in
    /// `WorkerScratch`.
    pub fn zf_task(&self, fb: &FrameBuffers, s: &mut WorkerScratch, group: usize) {
        let g = &self.geom;
        let csi = unsafe { fb.csi.slice(fb.csi_range(group * g.zf_group)) };
        s.zf_h.as_mut_slice().copy_from_slice(csi);
        let gram = s.zf_pinv.gram_mut().as_mut_slice();
        self.gram_rows(csi, s.zf_det.as_mut_slice(), gram);
        self.zf_solve_publish(fb, s, group, 0..g.m);
    }

    /// `out = A^H A` over `a`, some antennas' contiguous rows of a group's
    /// `M x K` channel, with `A^H` staged in `ah`. Zero-fill +
    /// [`gram_accumulate_with_tier`] over all `M` rows is the whole
    /// array's Gram; over one cluster's rows it is that cluster's partial.
    fn gram_rows(&self, a: &[Cf32], ah: &mut [Cf32], out: &mut [Cf32]) {
        let k = self.geom.k;
        let rows = a.len() / k;
        conj_transpose(a, rows, k, ah, self.tier);
        out.fill(Cf32::ZERO);
        gram_accumulate_with_tier(rows, k, ah, a, out, self.tier);
    }

    /// Stage one of the partitioned ZF path: compute the partial Gram
    /// `H_c^H H_c` over cluster `cluster`'s contiguous antenna rows of
    /// group `group`'s channel and publish it in the partial-Gram plane.
    pub fn gram_partial_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        group: usize,
        cluster: usize,
    ) {
        let g = &self.geom;
        let rows = ClusterPlan::new(g.m, g.clusters).range(cluster);
        let csi = unsafe { fb.csi.slice(fb.csi_range(group * g.zf_group)) };
        // The cluster's antennas are contiguous rows of the `M x K`
        // row-major CSI slice — the Gram's A operand needs no staging.
        let a = &csi[rows.start * g.k..rows.end * g.k];
        debug_assert!(a.len() <= s.zf_part_ah.len(), "cluster staging too small");
        let out = unsafe { fb.gram_part.slice_mut(fb.gram_part_range(group, cluster)) };
        self.gram_rows(a, &mut s.zf_part_ah[..a.len()], out);
    }

    /// Stage two of the partitioned ZF path: fold group `group`'s partial
    /// Grams in fixed cluster order (every shard folds all of them — the
    /// factorisation inputs are bit-identical across shards), then run
    /// the ZF tail over shard `shard`'s antenna columns of the detector —
    /// all of them when the reduce is unsharded.
    pub fn zf_reduce_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        group: usize,
        shard: usize,
    ) {
        let g = &self.geom;
        let csi = unsafe { fb.csi.slice(fb.csi_range(group * g.zf_group)) };
        s.zf_h.as_mut_slice().copy_from_slice(csi);
        // Deterministic tree reduction: a fixed left fold over the
        // cluster-ordered partial plane. Identical bits in every shard.
        let parts = unsafe { fb.gram_part.slice(fb.gram_part_group_range(group)) };
        gram_reduce(parts, s.zf_pinv.gram_mut().as_mut_slice());
        let cols = ClusterPlan::new(g.m, self.shape.zf_reduce_shards).range(shard);
        self.zf_solve_publish(fb, s, group, cols);
    }

    /// The zero-forcing tail, from a Gram to the published planes:
    /// `s.zf_pinv` holds group `group`'s `H^H H` (however it was
    /// computed) and `s.zf_h` its channel; the Gram system is solved by
    /// Cholesky factor + triangular sweeps.
    ///
    /// * All antenna columns: full-width solve into the detector, then
    ///   the power-normalised precoder (its transpose); both published
    ///   whole.
    /// * A column shard (only dispatched uplink-only): solve those
    ///   columns and publish them element-wise, so concurrent shards
    ///   never alias. Per-RHS-column independence of the triangular
    ///   sweeps makes the assembled detector bit-identical to the
    ///   full-width solve.
    fn zf_solve_publish(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        group: usize,
        cols: core::ops::Range<usize>,
    ) {
        let g = &self.geom;
        let method = PinvMethod::Cholesky;
        if cols.len() < g.m {
            let out = s
                .zf_shard
                .iter_mut()
                .find(|m| m.shape() == (g.k, cols.len()))
                .expect("no shard staging for this width");
            pinv_from_gram_slice_into(&s.zf_h, method, cols.start, cols.len(), &mut s.zf_pinv, out);
            let det_base = fb.det_range(group).start;
            for u in 0..g.k {
                for (j, a) in cols.clone().enumerate() {
                    debug_assert!(a < g.m, "detector column out of range");
                    // Element-precise writes: concurrent shards of the same
                    // group target disjoint column sets of the same plane.
                    unsafe { fb.det.write(det_base + u * g.m + a, out[(u, j)]) };
                }
            }
            return;
        }
        pinv_from_gram_slice_into(&s.zf_h, method, 0, g.m, &mut s.zf_pinv, &mut s.zf_det);
        s.zf_det.transpose_into(&mut s.zf_pre);
        normalize_precoder_in_place(&mut s.zf_pre);
        unsafe {
            fb.det.slice_mut(fb.det_range(group)).copy_from_slice(s.zf_det.as_slice());
            fb.pre.slice_mut(fb.pre_range(group)).copy_from_slice(s.zf_pre.as_slice());
        }
    }

    /// Fused equalization + demodulation for `count` consecutive
    /// subcarriers starting at `sc_base` of one uplink symbol: per
    /// cache-line block, one planned GEMM of the group's detector with
    /// the block's antenna samples, then every user's row soft-demapped
    /// into the LLR plane. `_frame` is unused — `fb` already is the
    /// frame's slot — and stays because the repo benchmark calls this
    /// signature.
    pub fn demod_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        _frame: u32,
        symbol: usize,
        sc_base: usize,
        count: usize,
    ) {
        let g = &self.geom;
        let bps = self.cfg.cell.modulation.bits_per_symbol();
        let freq = unsafe { fb.freq.slice(fb.freq_symbol_range(symbol)) };
        let noise = self.cfg.noise_power.max(1e-9);
        // The block writes below are unchecked: a partial block would
        // land its LLRs in a neighbour's range.
        assert!(
            sc_base.is_multiple_of(g.block) && count.is_multiple_of(g.block),
            "demod task splits a block"
        );
        for blk_off in (0..count).step_by(g.block) {
            let sc = sc_base + blk_off;
            let det_slice = unsafe { fb.det.slice(fb.det_range(sc / g.zf_group)) };
            // Antenna block is contiguous per antenna in this layout.
            let base = fb.freq_block_offset(g, sc / g.block, 0);
            let ant_block = &freq[base..base + g.m * g.block];
            self.eq_gemm.run(det_slice, ant_block, &mut s.user_block);
            for user in 0..g.k {
                // The block is the 8-subcarrier cache line: exactly one
                // AVX2 vector per axis.
                let row = &s.user_block[user * g.block..(user + 1) * g.block];
                let at = fb.llr_range(g, symbol, user).start + sc * bps;
                // Post-ZF noise on user u is amplified by ||w_u||^2.
                let nv = noise * row_norm_sqr(det_slice, g.m, user);
                self.demap_into(fb, &mut s.llr_tmp, &mut s.llr_i8_tmp, row, nv, at);
            }
        }
    }

    /// Soft-demaps one user's `row` of equalized symbols (post-detection
    /// noise variance `nv`) into the frame's active LLR plane — f32, or
    /// i8 under the quantized decoder — starting at LLR index `at`.
    fn demap_into(
        &self,
        fb: &FrameBuffers,
        llr_tmp: &mut Vec<f32>,
        llr_i8_tmp: &mut Vec<i8>,
        row: &[Cf32],
        nv: f32,
        at: usize,
    ) {
        let modulation = self.cfg.cell.modulation;
        let span = at..at + row.len() * modulation.bits_per_symbol();
        if self.cfg.quantized_decoder {
            llr_i8_tmp.clear();
            demod_soft_i8(modulation, row, nv, self.cfg.llr_quant_scale, llr_tmp, llr_i8_tmp);
            // SAFETY: one demod task owns this (symbol, subcarrier range)
            // of every user's LLRs; decode is dispatched after it.
            unsafe { fb.llr_i8.slice_mut(span) }.copy_from_slice(llr_i8_tmp);
        } else {
            demod_soft_simd(modulation, row, nv, llr_tmp);
            // SAFETY: as above.
            unsafe { fb.llr.slice_mut(span) }.copy_from_slice(llr_tmp);
        }
    }

    /// LDPC decode task for one (symbol, user) on the worker's decoding
    /// plane: re-inflate the received LLRs into the plane's staging
    /// buffer, decode straight into the frame's `decoded` plane. No
    /// allocation.
    pub fn decode_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        symbol: usize,
        user: usize,
    ) {
        let g = &self.geom;
        let tx_len = self.rate_match.tx_len();
        let max_iters = self.cfg.cell.ldpc.max_iters;
        let active_rows = Some(self.rate_match.active_rows());
        // SAFETY: one decode task per (symbol, user) is in flight, and it
        // is the only writer of that user's `decoded` range.
        let out = unsafe { fb.decoded.slice_mut(fb.decoded_range(g, symbol, user)) };
        let (success, _) = match &mut s.decode {
            DecodePlane::F32 { decoder, full_llr } => {
                // SAFETY: the symbol's demodulation finished before its
                // decode tasks were dispatched; nothing writes these LLRs.
                let llr = unsafe { fb.llr.slice(fb.llr_range(g, symbol, user)) };
                self.rate_match.fill_llrs_into(&llr[..tx_len], full_llr);
                let cfg = DecodeConfig { max_iters, active_rows, ..Default::default() };
                decoder.decode_into(full_llr, &cfg, out)
            }
            DecodePlane::I8 { decoder, full_llr } => {
                // SAFETY: as above, for the quantised LLR plane.
                let llr = unsafe { fb.llr_i8.slice(fb.llr_range(g, symbol, user)) };
                self.rate_match.fill_llrs_into(&llr[..tx_len], full_llr);
                let cfg = DecodeConfigI8 { max_iters, active_rows, ..Default::default() };
                decoder.decode_into(full_llr, &cfg, out)
            }
        };
        // SAFETY: this task is the only writer of the (symbol, user) flag.
        unsafe { fb.decode_ok.write(symbol * g.k + user, success as u8) };
    }

    /// LDPC encode task (downlink): deterministic MAC payload for
    /// `(frame, symbol, user)`, encoded and rate-matched into `dl_bits`.
    pub fn encode_task(&self, fb: &FrameBuffers, frame: u32, symbol: usize, user: usize) {
        let g = &self.geom;
        let info = mac_payload(frame, symbol as u32, user as u32, self.encoder.info_len());
        let cw = self.encoder.encode(&info);
        let mut tx = self.rate_match.extract(&cw);
        tx.resize(g.cap_bits, 0);
        unsafe {
            fb.dl_bits.slice_mut(fb.dl_bits_range(g, symbol, user)).copy_from_slice(&tx);
        }
    }

    /// Fused modulation + precoding for `count` consecutive subcarriers of
    /// one downlink symbol. Reads `dl_bits`, writes `dl_freq` blocks.
    pub fn precode_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        symbol: usize,
        sc_base: usize,
        count: usize,
    ) {
        self.precode_task_with(fb, fb, s, symbol, sc_base, count)
    }

    /// Like [`Self::precode_task`] but takes the precoder from a separate
    /// frame's buffers — the §3.4.2 stale-precoder early start, where the
    /// first downlink symbols beam with the previous frame's ZF output.
    pub fn precode_task_with(
        &self,
        fb: &FrameBuffers,
        pre_src: &FrameBuffers,
        s: &mut WorkerScratch,
        symbol: usize,
        sc_base: usize,
        count: usize,
    ) {
        let g = &self.geom;
        let bps = self.cfg.cell.modulation.bits_per_symbol();
        let sym_base = fb.freq_symbol_range(symbol).start;
        debug_assert_eq!(sc_base % g.block, 0);
        for blk_off in (0..count).step_by(g.block) {
            let sc = sc_base + blk_off;
            let width = g.block.min(g.q - sc);
            // Build the K x width user-symbol matrix (modulation fusion).
            for user in 0..g.k {
                let bits = unsafe { fb.dl_bits.slice(fb.dl_bits_range(g, symbol, user)) };
                for w in 0..width {
                    let mut v = 0u32;
                    for b in 0..bps {
                        v |= ((bits[(sc + w) * bps + b] & 1) as u32) << b;
                    }
                    s.user_block[user * width + w] = map_symbol(self.cfg.cell.modulation, v);
                }
            }
            let pre_slice = unsafe { pre_src.pre.slice(pre_src.pre_range(sc / g.zf_group)) };
            self.pre_gemm.run(
                pre_slice,
                &s.user_block[..g.k * width],
                &mut s.ant_block[..g.m * width],
            );
            // Scatter to [block][antenna][width]; this task owns the
            // whole block (all antennas) for its subcarriers.
            let base = sym_base + fb.freq_block_offset(g, sc / g.block, 0);
            let out = unsafe { fb.dl_freq.slice_mut(base..base + g.m * width) };
            stream_copy(&s.ant_block[..g.m * width], out, self.tier);
        }
        stream_fence();
    }

    /// IFFT task (downlink) for one antenna: [`Self::ifft_batch_task`]
    /// with a batch of one.
    pub fn ifft_task(&self, fb: &FrameBuffers, s: &mut WorkerScratch, symbol: usize, ant: usize) {
        self.ifft_batch_task(fb, s, symbol, ant, 1)
    }

    /// IFFT task (downlink) for `count` consecutive antennas from `base`:
    /// gather each antenna's subcarriers, inverse-transform them all,
    /// write time-domain samples. The gather reads each antenna's line of
    /// a `[block][antenna][8 sc]` block straight into the grid through
    /// the transform's bit-reversal table, so the grid is built
    /// pre-reversed and the butterflies run directly on it. The output
    /// does not depend on how antennas are grouped into batches.
    pub fn ifft_batch_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        symbol: usize,
        base: usize,
        count: usize,
    ) {
        let g = &self.geom;
        let n = self.cfg.cell.fft_size;
        assert!(count * n <= s.grid.len(), "batch exceeds scratch capacity");
        let bitrev = self.fft.bitrev();
        let freq = unsafe { fb.dl_freq.slice(fb.freq_symbol_range(symbol)) };
        for (i, grid) in s.grid.chunks_exact_mut(n).take(count).enumerate() {
            grid.fill(Cf32::ZERO);
            for p in &self.pieces {
                let off = p.off + (base + i) * g.block;
                for (&v, &j) in freq[off..off + p.len].iter().zip(&bitrev[p.bin..]) {
                    grid[j as usize] = v;
                }
            }
        }
        self.fft.execute_batch_prereversed(&mut s.grid[..count * n], Direction::Inverse);
        let out = unsafe { fb.dl_time.slice_mut(fb.dl_time_run_range(g, symbol, base, count)) };
        // CP-less symbols, as in the uplink path.
        for (out, grid) in out.chunks_exact_mut(g.samples).zip(s.grid.chunks_exact(n)) {
            stream_copy(&grid[..g.samples], out, self.tier);
        }
        stream_fence();
    }

    /// Modulation scheme shortcut.
    pub fn modulation(&self) -> ModScheme {
        self.cfg.cell.modulation
    }
}

/// Fused IQ unpack + cyclic-prefix skip + bit-reversal: reads the packed
/// 12-bit IQ samples of one symbol payload and writes the FFT-sized tail
/// (samples `skip..`) into `out` in bit-reversed order, ready for
/// [`FftPlan::execute_prereversed`]. One pass replaces the previous
/// unpack → tail copy → in-place permutation sequence — the samples are
/// touched once instead of three times. The payload is read front to
/// back (it is cold: another core received it) and each sample is
/// scattered to its slot of the cache-resident grid; the bit-reversal
/// table is its own inverse, so this is the gather `out[i] =
/// sample[bitrev[i]]` with the random accesses moved to the warm side.
pub fn unpack_bitrev(payload: &[u8], skip: usize, bitrev: &[u32], out: &mut [Cf32]) {
    assert_eq!(out.len(), bitrev.len(), "output must be transform-sized");
    assert!(
        payload.len() >= (skip + out.len()) * BYTES_PER_SAMPLE,
        "payload too short for skip + transform"
    );
    let samples = payload[skip * BYTES_PER_SAMPLE..].chunks_exact(BYTES_PER_SAMPLE);
    for (bytes, &j) in samples.zip(bitrev.iter()) {
        let bytes: &[u8; 3] = bytes.try_into().unwrap();
        out[j as usize] = unpack_sample(bytes);
    }
}

/// Cuts the active subcarriers into [`Piece`]s: each of the map's runs of
/// consecutive bins, split where it crosses a demod-block boundary.
fn block_pieces(map: &SubcarrierMap, g: &BufferGeometry) -> Vec<Piece> {
    let mut pieces = Vec::new();
    for (sc0, bins) in map.active_runs() {
        let mut done = 0;
        while done < bins.len() {
            let sc = sc0 + done;
            let len = (g.block - sc % g.block).min(bins.len() - done);
            let off = g.freq_block_offset(sc / g.block, 0) + sc % g.block;
            pieces.push(Piece { bin: bins.start + done, len, off });
            done += len;
        }
    }
    pieces
}

/// Squared norm of detector row `user` (length `m`).
fn row_norm_sqr(det: &[Cf32], m: usize, user: usize) -> f32 {
    det[user * m..(user + 1) * m].iter().map(|z| z.norm_sqr()).sum()
}

/// Deterministic pseudo-random MAC payload for downlink experiments.
pub fn mac_payload(frame: u32, symbol: u32, user: u32, len: usize) -> Vec<u8> {
    let mut state = ((frame as u64) << 32) ^ ((symbol as u64) << 16) ^ (user as u64) ^ 0x9E37;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 1) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_phy::CellConfig;

    #[test]
    fn kernels_build_for_paper_and_tiny_configs() {
        let _ = Kernels::new(EngineConfig::new(CellConfig::tiny_test(2), 2));
        let _ = Kernels::new(EngineConfig::new(CellConfig::emulated_rru(16, 4, 2), 4));
    }

    #[test]
    fn mac_payload_is_deterministic_and_binary() {
        let a = mac_payload(1, 2, 3, 100);
        let b = mac_payload(1, 2, 3, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x <= 1));
        let c = mac_payload(1, 2, 4, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn pilot_ordinal_maps_schedule() {
        let k = Kernels::new(EngineConfig::new(CellConfig::tiny_test(2), 2));
        assert_eq!(k.pilot_ordinal(0), 0);
    }

    #[test]
    fn scratch_sizes_match_geometry() {
        let k = Kernels::new(EngineConfig::new(CellConfig::tiny_test(2), 2));
        let s = k.scratch();
        assert_eq!(
            s.grid.len(),
            k.cfg.batch.fft.max(k.cfg.batch.ifft).max(1) * k.cfg.cell.fft_size
        );
        assert!((s.grid.as_ptr() as usize).is_multiple_of(agora_math::simd::CACHE_LINE));
        let DecodePlane::F32 { full_llr, .. } = &s.decode else {
            panic!("the default configuration decodes in f32");
        };
        assert_eq!(full_llr.len(), k.rate_match().codeword_len());
        assert_eq!(s.zf_h.shape(), (k.geom.m, k.geom.k));
        assert_eq!(s.zf_det.shape(), (k.geom.k, k.geom.m));
        assert_eq!(s.zf_pre.shape(), (k.geom.m, k.geom.k));
    }

    /// Satellite sizing audit for the partitioned-ZF scratch at large
    /// arrays: every staging buffer is sized from the validated
    /// `EngineConfig` at construction, wide enough for the widest
    /// cluster/shard and no wider.
    #[test]
    fn clustered_scratch_sized_from_config_at_large_m() {
        use agora_phy::ClusterPlan;
        for m in [128usize, 256] {
            for clusters in [1usize, 4, 8, 6] {
                let mut cfg = EngineConfig::new(CellConfig::emulated_rru(m, 16, 2), 2);
                cfg.antenna_clusters = clusters;
                let k = Kernels::new(cfg);
                assert_eq!(k.shape.zf_clusters, clusters);
                let s = k.scratch();
                let plan = ClusterPlan::new(m, clusters);
                assert_eq!(s.zf_part_ah.len(), k.geom.k * plan.max_len());
                // Uplink-only direct mode shards the reduce per cluster;
                // staging must cover exactly the distinct shard widths.
                let shards = k.shape.zf_reduce_shards;
                assert_eq!(shards, clusters);
                if shards > 1 {
                    let widths: std::collections::BTreeSet<usize> =
                        (0..shards).map(|i| ClusterPlan::new(m, shards).range(i).len()).collect();
                    let staged: std::collections::BTreeSet<usize> =
                        s.zf_shard.iter().map(|c| c.shape().1).collect();
                    assert_eq!(staged, widths, "m={m} clusters={clusters}");
                    assert!(s.zf_shard.iter().all(|c| c.shape().0 == k.geom.k));
                    assert!(s.zf_shard.len() <= 2, "balanced split has at most two widths");
                } else {
                    assert!(s.zf_shard.is_empty(), "unsharded reduce solves into zf_det");
                }
            }
        }
    }

    /// One dataflow: on a one-cluster geometry the staged pair —
    /// `gram_partial_task` over all antennas, then `zf_reduce_task` —
    /// leaves the `det` and `pre` planes byte-equal to `zf_task`.
    #[test]
    fn staged_zf_tasks_equal_the_single_task_on_one_cluster() {
        use crate::inline_engine::InlineProcessor;
        use agora_fronthaul::{RruConfig, RruEmulator};
        use agora_phy::frame::FrameSchedule;

        for schedule in ["PUU", "PUUDD"] {
            let mut cell = CellConfig::tiny_test(2);
            cell.schedule = FrameSchedule::parse(schedule).unwrap();
            cell.validate().unwrap();
            let rc = RruConfig { snr_db: 25.0, seed: 17, ..Default::default() };
            let mut rru = RruEmulator::new(cell.clone(), rc);
            let (packets, _) = rru.generate_frame(0);
            let mut cfg = EngineConfig::new(cell, 1);
            cfg.noise_power = rru.noise_power();
            // One inline frame leaves the interpolated CSI in place.
            let mut proc = InlineProcessor::new(cfg);
            proc.process_frame(0, &packets);
            let (k, fb) = (proc.kernels(), proc.buffers(0));
            assert_eq!((k.geom.clusters, k.shape.zf_reduce_shards), (1, 1));
            let mut s = k.scratch();
            let mut run = |staged: bool| {
                let planes = [&fb.det, &fb.pre];
                for plane in planes {
                    // SAFETY: single-threaded test, no other view alive.
                    unsafe { plane.slice_mut(0..plane.len()) }.fill(Cf32::ZERO);
                }
                for group in 0..k.shape.zf_groups {
                    if staged {
                        k.gram_partial_task(fb, &mut s, group, 0);
                        k.zf_reduce_task(fb, &mut s, group, 0);
                    } else {
                        k.zf_task(fb, &mut s, group);
                    }
                }
                // SAFETY: as above.
                planes.map(|plane| bits(unsafe { plane.slice(0..plane.len()) }))
            };
            let single = run(false);
            let staged = run(true);
            for (i, plane) in ["det", "pre"].into_iter().enumerate() {
                assert!(single[i].iter().any(|&b| b != (0, 0)), "{schedule}: {plane} untouched");
                assert_eq!(single[i], staged[i], "{schedule}: {plane} plane");
            }
        }
    }

    /// A batched (I)FFT task is `n` single tasks run through one batched
    /// transform: on the frame planes — CSI (pilot), `freq` (uplink) and
    /// `dl_time` (downlink) — `fft_batch_task(base, n)` and
    /// `ifft_batch_task(base, n)` must write exactly the bits that
    /// `n x fft_task` / `n x ifft_task` write.
    #[test]
    fn batch_fft_tasks_equal_single_tasks_on_frame_planes() {
        use crate::inline_engine::InlineProcessor;
        use agora_fronthaul::{RruConfig, RruEmulator};
        use agora_phy::frame::FrameSchedule;

        let mut cell = CellConfig::tiny_test(2);
        cell.schedule = FrameSchedule::parse("PUD").unwrap();
        cell.validate().unwrap();
        let m = cell.num_antennas;
        let mut rru = RruEmulator::new(
            cell.clone(),
            RruConfig { snr_db: 25.0, seed: 17, ..Default::default() },
        );
        let (packets, _) = rru.generate_frame(0);
        let mut cfg = EngineConfig::new(cell, 1);
        cfg.noise_power = rru.noise_power();
        // Scratch holds one whole symbol's transforms.
        cfg.batch.fft = m;
        cfg.batch.ifft = m;
        // One inline frame leaves the received packets and `dl_freq` in
        // place for the kernels to re-run on.
        let mut proc = InlineProcessor::new(cfg);
        proc.process_frame(0, &packets);
        let (k, fb) = (proc.kernels(), proc.buffers(0));
        let mut s = k.scratch();

        // (plane written, symbol, forward transform?) for pilot, uplink, downlink.
        let planes = [(&fb.csi, 0usize, true), (&fb.freq, 1, true), (&fb.dl_time, 2, false)];
        for (plane, symbol, forward) in planes {
            // Whole symbol, and an odd run off a non-zero base.
            for (base, n) in [(0, m), (3, 3)] {
                let mut run = |batched: bool| {
                    // SAFETY: single-threaded test, no other view alive.
                    unsafe { plane.slice_mut(0..plane.len()) }.fill(Cf32::ZERO);
                    match (forward, batched) {
                        (true, true) => k.fft_batch_task(fb, &mut s, symbol, base, n),
                        (false, true) => k.ifft_batch_task(fb, &mut s, symbol, base, n),
                        (true, false) => {
                            (base..base + n).for_each(|a| k.fft_task(fb, &mut s, symbol, a))
                        }
                        (false, false) => {
                            (base..base + n).for_each(|a| k.ifft_task(fb, &mut s, symbol, a))
                        }
                    }
                    // SAFETY: as above.
                    bits(unsafe { plane.slice(0..plane.len()) })
                };
                let batched = run(true);
                let singles = run(false);
                assert!(batched.iter().any(|&b| b != (0, 0)), "symbol {symbol}: plane untouched");
                assert_eq!(batched, singles, "symbol {symbol} base {base} n {n}");
            }
        }

        // The IFFT task's fused ends against the unfused pipeline: gather
        // the antenna's subcarriers out of the `dl_freq` blocks, scatter
        // them into a zeroed grid, run the whole transform (with its own
        // bit-reversal pass).
        let g = k.geom;
        (0..m).for_each(|a| k.ifft_task(fb, &mut s, 2, a));
        // SAFETY: single-threaded test, no writer.
        let freq = unsafe { fb.dl_freq.slice(fb.freq_symbol_range(2)) };
        let (mut active, mut grid) = (vec![Cf32::ZERO; g.q], vec![Cf32::ZERO; g.samples]);
        for ant in 0..m {
            for (sc, v) in active.iter_mut().enumerate() {
                *v = freq[fb.freq_block_offset(&g, sc / g.block, ant) + sc % g.block];
            }
            k.map.map_symbols(&active, &mut grid);
            k.fft.execute(&mut grid, Direction::Inverse);
            // SAFETY: as above.
            let got = unsafe { fb.dl_time.slice(fb.dl_time_range(&g, 2, ant)) };
            assert_eq!(bits(got), bits(&grid), "antenna {ant}");
        }
    }

    fn bits(v: &[Cf32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Kernels for `cell` (schedule replaced by `pilots` pilot symbols,
    /// one uplink and one downlink symbol) and one frame slot holding a
    /// pseudo-random packet for every antenna of every pilot and uplink
    /// symbol — all an FFT task needs.
    fn primed(
        mut cell: CellConfig,
        pilots: usize,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> (Kernels, FrameBuffers) {
        use agora_fronthaul::{encode, PacketBuf, PacketDir, PacketHeader};
        use agora_phy::frame::FrameSchedule;
        cell.schedule = FrameSchedule::parse(&format!("{}UD", "P".repeat(pilots))).unwrap();
        let mut cfg = EngineConfig::new(cell, 1);
        tweak(&mut cfg);
        let k = Kernels::new(cfg);
        let fb = FrameBuffers::new(&k.geom);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for symbol in 0..=pilots {
            for antenna in 0..k.geom.m {
                let payload: Vec<u8> = (0..k.geom.samples * BYTES_PER_SAMPLE)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 32) as u8
                    })
                    .collect();
                let hdr = PacketHeader {
                    frame: 0,
                    symbol: symbol as u16,
                    antenna: antenna as u16,
                    dir: PacketDir::Uplink,
                    cell: 0,
                    payload_len: payload.len() as u32,
                };
                let idx = fb.pkt_index(&k.geom, symbol, antenna);
                // SAFETY: single-threaded test — no concurrent access.
                unsafe { fb.rx_pkts.store(idx, PacketBuf::Heap(encode(&hdr, &payload))) };
            }
        }
        (k, fb)
    }

    /// The fused store's contract, at 8x2 and 64x16: (a) a batched FFT
    /// task of any `count` up to `batch.fft`, off a zero and a non-zero
    /// base, leaves the `csi` (pilot) and `freq` (uplink) planes
    /// byte-equal to `count` single tasks; (b) what the fused store
    /// leaves equals the unfused pipeline — unpack, transform,
    /// `demap_symbols`, then one element at a time to its place in the
    /// block layout (times the pilot's reciprocal for CSI).
    #[test]
    fn fused_fft_store_matches_unfused_reference_for_every_batch() {
        for cell in [CellConfig::tiny_test(1), CellConfig::emulated_rru(64, 16, 1)] {
            let what = format!("{}x{}", cell.num_antennas, cell.num_users);
            let (k, fb) = primed(cell.clone(), 1, |cfg| cfg.batch.fft = 4);
            let (g, n) = (k.geom, k.cfg.cell.fft_size);
            let mut s = k.scratch();
            for (symbol, plane) in [(0usize, &fb.csi), (1, &fb.freq)] {
                for count in 1..=k.cfg.batch.fft {
                    for base in [0, g.m - count] {
                        let mut run = |batched: bool| {
                            // SAFETY: single-threaded test, no other view alive.
                            unsafe { plane.slice_mut(0..plane.len()) }.fill(Cf32::ZERO);
                            if batched {
                                k.fft_batch_task(&fb, &mut s, symbol, base, count);
                            } else {
                                (base..base + count)
                                    .for_each(|a| k.fft_task(&fb, &mut s, symbol, a));
                            }
                            // SAFETY: as above.
                            bits(unsafe { plane.slice(0..plane.len()) })
                        };
                        let batched = run(true);
                        assert!(batched.iter().any(|&b| b != (0, 0)), "{what}: untouched");
                        // Not `assert_eq!`: a failure would print both planes.
                        assert!(batched == run(false), "{what} sym {symbol} {base}+{count}");
                    }
                }
                // The whole symbol, then the unfused reference.
                (0..g.m).for_each(|a| k.fft_task(&fb, &mut s, symbol, a));
                // SAFETY: single-threaded test, no writer.
                let got = unsafe { plane.slice(0..plane.len()) };
                let (mut grid, mut active) = (vec![Cf32::ZERO; n], vec![Cf32::ZERO; g.q]);
                for ant in 0..g.m {
                    // SAFETY: `primed` stored this packet.
                    let payload = unsafe { fb.rx_payload_view(&g, symbol, ant) };
                    unpack_bitrev(payload, g.samples - n, k.fft.bitrev(), &mut grid);
                    k.fft.execute_prereversed(&mut grid, Direction::Forward);
                    k.map.demap_symbols(&grid, &mut active);
                    for (sc, &y) in active.iter().enumerate() {
                        let (idx, want) = if symbol == 0 {
                            let (user, p) = k.pilots.owner(0, sc).unwrap();
                            (fb.csi_range(sc).start + ant * g.k + user, y * p.inv())
                        } else {
                            let off = fb.freq_block_offset(&g, sc / g.block, ant);
                            (fb.freq_symbol_range(1).start + off + sc % g.block, y)
                        };
                        assert_eq!(
                            bits(&got[idx..idx + 1]),
                            bits(&[want]),
                            "{what} sym {symbol} ant {ant} sc {sc}"
                        );
                    }
                }
            }
        }
    }

    /// The per-ordinal pilot table is `PilotPlan::owner` with the
    /// reciprocal taken once, entry by entry, for both pilot schemes; a
    /// pilot symbol no user owns has an empty row.
    #[test]
    fn pilot_table_matches_the_pilot_plan() {
        use agora_phy::PilotScheme;
        for (scheme, pilots) in [
            (PilotScheme::FrequencyOrthogonal, 1),
            (PilotScheme::FrequencyOrthogonal, 2),
            (PilotScheme::TimeOrthogonal, 2),
            (PilotScheme::TimeOrthogonal, 3),
        ] {
            let mut cell = CellConfig::tiny_test(1);
            cell.pilot_scheme = scheme;
            let (k, _) = primed(cell, pilots, |_| {});
            assert_eq!(k.pilot_table.len(), pilots);
            for (ordinal, row) in k.pilot_table.iter().enumerate() {
                assert_eq!(k.pilot_ordinal(k.pilot_symbols[ordinal]), ordinal);
                let want: Vec<(u32, (u32, u32))> = (0..k.geom.q)
                    .filter_map(|sc| k.pilots.owner(ordinal, sc))
                    .map(|(user, p)| (user as u32, bits(&[p.inv()])[0]))
                    .collect();
                let got: Vec<(u32, (u32, u32))> =
                    row.iter().map(|&(user, inv)| (user, bits(&[inv])[0])).collect();
                assert_eq!(got, want, "{scheme:?} ordinal {ordinal}");
                let owned = scheme == PilotScheme::FrequencyOrthogonal || ordinal < k.geom.k;
                assert_eq!(row.len(), if owned { k.geom.q } else { 0 });
            }
        }
    }

    /// `interpolate_csi` fills only the row each ZF group reads. The ZF
    /// outputs must not be able to tell: `det` and `pre` are byte-equal
    /// to those computed after interpolating every subcarrier (the
    /// routine this one replaced, kept here as the reference), at 8x2,
    /// 16x4 and 64x16, for both pilot schemes, and a ZF group that is
    /// not a multiple of K.
    #[test]
    fn zf_row_interpolation_equals_full_interpolation() {
        use agora_phy::PilotScheme;
        fn interpolate_every_row(k: &Kernels, fb: &FrameBuffers) {
            if k.pilots.scheme() == PilotScheme::TimeOrthogonal {
                return;
            }
            let g = &k.geom;
            // SAFETY: single-threaded test, no other view alive.
            let csi = unsafe { fb.csi.slice_mut(0..fb.csi.len()) };
            for sc in 0..g.q {
                let anchor = (sc / g.k) * g.k;
                for user in (0..g.k).filter(|&u| anchor + u != sc && anchor + u < g.q) {
                    for ant in 0..g.m {
                        csi[sc * g.m * g.k + ant * g.k + user] =
                            csi[(anchor + user) * g.m * g.k + ant * g.k + user];
                    }
                }
            }
        }
        let mut k3 = CellConfig::tiny_test(1);
        (k3.num_users, k3.zf_group) = (3, 8);
        let cells = [
            CellConfig::tiny_test(1),
            k3,
            CellConfig::emulated_rru(16, 4, 1),
            CellConfig::emulated_rru(64, 16, 1),
        ];
        for cell in cells {
            for scheme in [PilotScheme::FrequencyOrthogonal, PilotScheme::TimeOrthogonal] {
                let what = format!(
                    "{}x{} group {} {scheme:?}",
                    cell.num_antennas, cell.num_users, cell.zf_group
                );
                let mut cell = cell.clone();
                cell.pilot_scheme = scheme;
                let pilots = scheme.pilot_symbols(cell.num_users);
                let (k, fb) = primed(cell, pilots, |_| {});
                let mut s = k.scratch();
                for symbol in 0..pilots {
                    (0..k.geom.m).for_each(|a| k.fft_task(&fb, &mut s, symbol, a));
                }
                // SAFETY (here and below): single-threaded test.
                let estimated = unsafe { fb.csi.slice(0..fb.csi.len()) }.to_vec();
                let mut zf_planes = |full: bool| {
                    unsafe { fb.csi.slice_mut(0..fb.csi.len()) }.copy_from_slice(&estimated);
                    if full {
                        interpolate_every_row(&k, &fb);
                    } else {
                        k.interpolate_csi(&fb);
                    }
                    (0..k.shape.zf_groups).for_each(|group| k.zf_task(&fb, &mut s, group));
                    [&fb.det, &fb.pre].map(|plane| bits(unsafe { plane.slice(0..plane.len()) }))
                };
                let (rows, full) = (zf_planes(false), zf_planes(true));
                assert!(rows[0].iter().any(|&b| b != (0, 0)), "{what}: det untouched");
                for (i, plane) in ["det", "pre"].into_iter().enumerate() {
                    // Not `assert_eq!`: a failure would print both planes.
                    assert!(rows[i] == full[i], "{what}: {plane} plane");
                }
            }
        }
    }

    /// The fused unpack → bit-reversal gather plus `execute_prereversed`
    /// must be bit-identical to the naive pipeline it replaced: unpack
    /// everything, copy the FFT-sized tail, run the full transform.
    #[test]
    fn fused_unpack_bitrev_matches_naive_pipeline() {
        use agora_fft::FftPlan;
        use agora_phy::iq::{pack_samples, unpack_samples};

        let n = 64;
        let skip = 16; // emulate a cyclic prefix ahead of the window
        let samples: Vec<Cf32> = (0..skip + n)
            .map(|i| {
                let t = i as f32 * 0.37;
                Cf32::new(
                    (t.sin() * 0.4 * 2048.0).round() / 2048.0,
                    (t.cos() * 0.4 * 2048.0).round() / 2048.0,
                )
            })
            .collect();
        let mut payload = Vec::new();
        pack_samples(&samples, &mut payload);

        let plan = FftPlan::new(n);

        // Naive path: unpack all, copy tail, full execute (with its own
        // bit-reversal pass).
        let mut time = Vec::new();
        unpack_samples(&payload, &mut time);
        let mut naive: Vec<Cf32> = time[skip..].to_vec();
        plan.execute(&mut naive, Direction::Forward);

        // Fused path.
        let mut fused = vec![Cf32::ZERO; n];
        unpack_bitrev(&payload, skip, plan.bitrev(), &mut fused);
        plan.execute_prereversed(&mut fused, Direction::Forward);

        for (a, b) in naive.iter().zip(fused.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
