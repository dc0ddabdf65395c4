//! Task bodies — what a worker actually executes for each task type.
//!
//! One [`Kernels`] instance per engine holds the immutable plans (FFT
//! twiddles, GEMM dispatch, demapper levels, constellation table, pilot
//! references, the payload generator's tables, the word encoder); each
//! worker additionally owns a [`WorkerScratch`] with its decoder state and
//! staging buffers, and the encode task keeps its payload and codeword on
//! the stack, so no task body allocates (`crates/core/tests/zero_alloc.rs`
//! counts them). The same kernels serve the threaded engine, the
//! multi-cell deployment and the inline single-threaded processor — the
//! schedulers differ, the math does not.

use crate::buffers::{AlignedBuf, BufferGeometry, FrameBuffers, Piece};
use crate::config::EngineConfig;
use crate::state::FrameShape;
use agora_fft::{Conj, FftPlan, Steps, SubcarrierMap};
use agora_ldpc::{DecodeConfigI8, DecoderI8, RateMatch, WordEncoder};
use agora_math::simd::{stream_conj_scale, stream_copy, stream_fence, SimdTier};
use agora_math::{
    normalize_precoder_in_place, pinv_into, CMat, Cf32, Gemm, PinvMethod, PinvScratch,
};
use agora_phy::demod::Demapper;
use agora_phy::frame::SymbolType;
use agora_phy::iq::{unpack_sample, BYTES_PER_SAMPLE};
use agora_phy::modulation::{ModScheme, Modulator};
use agora_phy::pilots::PilotPlan;
use agora_phy::{CellConfig, PilotScheme};

/// Immutable, shared kernel state.
pub struct Kernels {
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Buffer geometry derived from the cell.
    pub geom: BufferGeometry,
    /// Task fan-out of one frame (what the schedulers expand and count).
    pub shape: FrameShape,
    fft: FftPlan,
    /// The active subcarriers as the line-sized moves between a
    /// transform grid and the `[block][antenna][8 sc]` plane.
    pieces: Vec<Piece>,
    /// Per frame symbol, the channel estimates it owes the CSI plane:
    /// for a pilot symbol, one estimate per `(ZF group, user)` whose
    /// source subcarrier it observes, group-major, in runs of consecutive
    /// users — a group's whole `K` under frequency-orthogonal pilots, so
    /// an antenna writes each group's columns with one view. Empty for
    /// every other symbol, and for a pilot symbol no user owns.
    pilot_stores: Vec<Vec<PilotRun>>,
    /// Where the IFFT task's scatter reads each eight-bin step of the
    /// grid, in natural order.
    ifft_steps: Vec<IfftStep>,
    /// The pieces of the [`IfftStep::Staged`] steps, each with the place
    /// of its first bin in the worker's staging row.
    ifft_staged: Vec<(Piece, usize)>,
    rate_match: RateMatch,
    /// The MAC payload generator, a word at a time.
    payload: PayloadWords,
    encoder: WordEncoder,
    /// Planned GEMM for equalization (`K x M x block`).
    eq_gemm: Gemm,
    /// Planned GEMM for precoding (`M x K x block`).
    pre_gemm: Gemm,
    /// The cell's soft demapper, run on every user row a block's
    /// equalization GEMM leaves.
    demapper: Demapper,
    /// The cell's constellation table, run on every user row a block's
    /// precoding GEMM reads.
    modulator: Modulator,
    /// Tier every kernel above and the streaming stores dispatch to.
    tier: SimdTier,
    /// How the task bodies store the `freq`, `dl_freq` and `dl_time`
    /// planes, decided from their sizes.
    stores: PlaneStores,
    /// Squared minimum distance of the cell's constellation, which the
    /// LLR quantiser divides by.
    d_min_sqr: f32,
}

/// Quantisation steps a nominal constellation point's least reliable bit
/// lands on: its LLR is `d_min^2 * inv_noise`, so quantising each user row
/// at [`quant_scale`] gives every SNR the same integer picture of the
/// constellation. The decoder admits priors up to `I8_CHAN_MAX` = 30, so
/// 16 leaves a noisy point room to look more reliable than a nominal one
/// before it saturates, and 2 steps of min-sum offset stay small next to
/// it. Chosen by the `bler` row of `parity` (EXPERIMENTS.md): 8 decodes
/// fewer blocks than the float decoder at 8x2 below 6 dB (AWGN) and 10 dB
/// (Rayleigh), 32 fewer at 64x16 around 20 dB; 16 decodes at least as
/// many at every point of the sweep.
const NOMINAL_LLR_STEPS: f32 = 16.0;

/// Bytes of one frame's plane above which its task bodies store it with
/// streaming stores (DESIGN.md §4.4). Streaming skips the producing
/// core's cache so the coherence traffic of a cross-core handoff goes
/// (the paper's §4.1), but its reader then fetches the plane from memory:
/// worth it only when the frame would not have stayed in cache anyway.
/// Half of a 2 MiB L2 — the plane shares it with the transform grid, the
/// packets and the decoder — and between the benchmark's shapes on
/// either side: an 8x2 frame's `freq` is 215 KB and cached stores win,
/// a 16x4 frame's 2.15 MB and streaming wins (CHANGES.md has the ladder).
const STREAM_ABOVE_BYTES: usize = 1 << 20;

/// How a task body writes one of its output planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stores {
    /// Through the cache, no fence.
    Cached,
    /// Streaming ([`stream_copy`]), one [`stream_fence`] per task.
    Streamed,
}

impl Stores {
    /// The policy of a plane of `bytes` per frame.
    fn for_plane(bytes: usize) -> Self {
        if bytes > STREAM_ABOVE_BYTES {
            Stores::Streamed
        } else {
            Stores::Cached
        }
    }

    /// `dst = src`.
    fn copy(self, src: &[Cf32], dst: &mut [Cf32], tier: SimdTier) {
        match self {
            Stores::Cached => dst.copy_from_slice(src),
            Stores::Streamed => stream_copy(src, dst, tier),
        }
    }

    /// `dst = conj(src) * scale`, with the operations of
    /// [`stream_conj_scale`] either way.
    fn conj_scale(self, src: &[Cf32], dst: &mut [Cf32], scale: f32, tier: SimdTier) {
        match self {
            Stores::Cached => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = s.conj().scale(scale);
                }
            }
            Stores::Streamed => stream_conj_scale(src, dst, scale, tier),
        }
    }

    /// Closes a task that stored with this policy: the one fence when it
    /// streamed.
    fn fence(self) {
        if self == Stores::Streamed {
            stream_fence();
        }
    }
}

/// [`Stores`] of the three planes a task body writes with whole-line
/// copies.
#[derive(Debug, Clone, Copy)]
struct PlaneStores {
    /// `freq` and `dl_freq`, both `symbols x Q x M` samples.
    freq: Stores,
    dl_time: Stores,
}

impl PlaneStores {
    fn new(g: &BufferGeometry) -> Self {
        let bytes = |row_len: usize| g.symbols * row_len * core::mem::size_of::<Cf32>();
        Self {
            freq: Stores::for_plane(bytes(g.q * g.m)),
            dl_time: Stores::for_plane(bytes(g.m * g.samples)),
        }
    }
}

/// Squared distance between neighbouring points of `scheme`'s
/// constellation: PAM levels sit `2 * scale` apart on each axis.
fn d_min_sqr(scheme: ModScheme) -> f32 {
    4.0 * scheme.scale() * scheme.scale()
}

/// The `f32 -> i8` scale of a user row whose post-ZF noise scale is
/// `inv_noise`: maps a nominal point's weakest LLR, `d_min_sqr *
/// inv_noise`, to [`NOMINAL_LLR_STEPS`]. Per ZF group, because
/// `inv_noise` is: one scale per user over the band, from its best group,
/// shrinks the others' LLRs towards zero — on 8x2 Rayleigh in the `bler`
/// sweep, an error floor of 6-13 of 520 blocks from 10 dB up.
fn quant_scale(inv_noise: f32, d_min_sqr: f32) -> f32 {
    NOMINAL_LLR_STEPS / (inv_noise * d_min_sqr)
}

/// A run of channel estimates a pilot FFT task leaves in the CSI plane:
/// users `user..user + sources.len()` of one ZF group — antenna `a`'s
/// estimate for user `u` is column `a * K + u` of the group's row-major
/// `M x K` row — each from the transform bin of the subcarrier it is
/// taken from, times the reciprocal of the pilot reference (the fused LS
/// estimate).
#[derive(Debug, Clone)]
struct PilotRun {
    group: usize,
    user: usize,
    sources: Vec<(usize, Cf32)>,
}

/// Where the IFFT task's scatter ([`FftPlan::forward_of`]) finds the
/// eight natural-order bins of one step of an antenna's grid.
#[derive(Debug, Clone, Copy)]
enum IfftStep {
    /// Guard bins only.
    Zero,
    /// Eight bins of one piece: eight consecutive samples of the
    /// antenna's line of a `dl_freq` block, from this column for antenna
    /// 0 (antenna `a`'s are `a * block` on).
    Plane(usize),
    /// Bins of two pieces, or of a piece and a guard band — at 2048/1200
    /// the DC offset puts every positive-frequency step here: eight
    /// samples of the worker's staging row from this place.
    Staged(usize),
}

/// Per-worker mutable scratch: decoder state and staging buffers.
pub struct WorkerScratch {
    /// The one transform buffer: `batch.fft` transform-sized grids back
    /// to back, line-aligned, one per antenna of an FFT task, so the
    /// task's loads and stores never straddle a line; an IFFT task
    /// transforms one antenna at a time in the first.
    grid: AlignedBuf<Cf32>,
    ant_block: Vec<Cf32>,
    user_block: Vec<Cf32>,
    /// ZF scratch: channel matrix (`M x K`), detector (`K x M`), precoder
    /// (`M x K`) and pseudo-inverse intermediates, reused across groups so
    /// the ZF task never allocates.
    zf_h: CMat,
    zf_det: CMat,
    zf_pre: CMat,
    zf_pinv: PinvScratch,
    decoder: DecoderI8,
    /// A code block's LLRs as rate matching re-inflates them.
    full_llr: Vec<i8>,
    /// The IFFT task's [`IfftStep::Staged`] steps, natural order. Only
    /// their active bins are ever written, so the guard bins among them
    /// keep the zeros the row was allocated with.
    ifft_stage: Vec<Cf32>,
}

impl Kernels {
    /// Builds kernels for a validated engine configuration on the
    /// detected tier.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_tier(cfg, SimdTier::cached())
    }

    /// [`Self::new`] with every kernel — transforms, ZF, GEMMs, demapper,
    /// modulator, decoder, streaming stores — pinned to `tier`, clamped
    /// to what the CPU supports. The tiers are bit-identical; `parity`
    /// holds the frame planes to that.
    pub fn with_tier(cfg: EngineConfig, tier: SimdTier) -> Self {
        cfg.validate().expect("invalid engine configuration");
        let tier = tier.min(SimdTier::cached());
        let cell = &cfg.cell;
        let geom = BufferGeometry {
            m: cell.num_antennas,
            k: cell.num_users,
            q: cell.num_data_sc,
            symbols: cell.symbols_per_frame(),
            samples: cell.samples_per_symbol(),
            block: cfg.demod_block,
            zf_group: cell.zf_group,
            cap_bits: cell.bits_per_symbol_per_user(),
            info_bits: cell.info_bits_per_symbol(),
        };
        let fft = FftPlan::with_tier(cell.fft_size, tier);
        let map = SubcarrierMap::new(cell.fft_size, cell.num_data_sc);
        let pieces = geom.pieces(map.active_runs());
        let pilot_stores = pilot_stores(cell, &map, &geom);
        let (ifft_steps, ifft_staged) = ifft_steps(cell.fft_size, &pieces, &geom);
        let rate_match = cell.ldpc.rate_match();
        let encoder = WordEncoder::new(cell.ldpc.base_graph, cell.ldpc.z, cell.ldpc.rate);
        let eq_gemm = Gemm::plan_with_tier(geom.k, geom.m, geom.block, tier);
        let pre_gemm = Gemm::plan_with_tier(geom.m, geom.k, geom.block, tier);
        let demapper = Demapper::new(cell.modulation, tier);
        let modulator = Modulator::new(cell.modulation);
        let d_min_sqr = d_min_sqr(cell.modulation);
        let shape = FrameShape::new(cell);
        let stores = PlaneStores::new(&geom);
        Self {
            cfg,
            geom,
            shape,
            fft,
            pieces,
            pilot_stores,
            ifft_steps,
            ifft_staged,
            rate_match,
            payload: PayloadWords::new(),
            encoder,
            eq_gemm,
            pre_gemm,
            demapper,
            modulator,
            tier,
            stores,
            d_min_sqr,
        }
    }

    /// Creates a fresh per-worker scratch.
    pub fn scratch(&self) -> WorkerScratch {
        let g = &self.geom;
        let ldpc = &self.cfg.cell.ldpc;
        WorkerScratch {
            grid: AlignedBuf::zeroed(self.cfg.batch.fft.max(1) * self.cfg.cell.fft_size),
            ant_block: vec![Cf32::ZERO; g.m * g.block],
            user_block: vec![Cf32::ZERO; g.k * g.block],
            zf_h: CMat::zeros(g.m, g.k),
            zf_det: CMat::zeros(g.k, g.m),
            zf_pre: CMat::zeros(g.m, g.k),
            zf_pinv: PinvScratch::with_tier(g.m, g.k, self.tier),
            decoder: DecoderI8::with_tier(ldpc.base_graph, ldpc.z, self.tier),
            full_llr: vec![0; self.rate_match.codeword_len()],
            ifft_stage: vec![Cf32::ZERO; staged_len(&self.ifft_steps)],
        }
    }

    /// The rate-matching plan.
    pub fn rate_match(&self) -> &RateMatch {
        &self.rate_match
    }

    /// FFT task (uplink) for one antenna: [`Self::fft_batch_task`] with a
    /// batch of one.
    pub fn fft_task(&self, fb: &FrameBuffers, s: &mut WorkerScratch, symbol: usize, ant: usize) {
        self.fft_batch_task(fb, s, symbol, ant, 1)
    }

    /// FFT task (uplink) for `count` consecutive antennas from `base`:
    /// unpack each antenna's payload, transform them all, then either
    /// estimate CSI (pilot symbols — the FFT+CSI fusion of Table 2) or
    /// store frequency-domain data for demodulation.
    ///
    /// Both ends of the transform are fused into it. In front, IQ unpack,
    /// cyclic-prefix skip, the bit-reversal permutation and the first
    /// butterfly stages are one pass: [`unpack_forward`] reads the
    /// payload's packed samples a step at a time and runs the rest of the
    /// transform. Behind,
    /// `fft_store` moves the active bins straight from the grid into the
    /// frame plane. The output does not depend on how antennas are grouped
    /// into batches.
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
        // Every payload is taken, and its antenna checked, before anything
        // is stored.
        for (i, grid) in s.grid.chunks_exact_mut(n).take(count).enumerate() {
            unpack_forward(fb.rx_pkts.payload(symbol, base + i), skip, &self.fft, grid);
        }
        for (i, grid) in s.grid.chunks_exact(n).take(count).enumerate() {
            self.fft_store(fb, symbol, base + i, grid);
        }
        // The one fence of a task body, after its last streaming copy: the
        // completion message's release store does not order streaming
        // stores, and that message is what publishes the plane to the
        // consuming task.
        self.stores.freq.fence();
    }

    /// Post-FFT store, straight from the transformed `grid` of `(symbol,
    /// ant)`: for a pilot, the channel estimates the ZF stage reads, for
    /// uplink data the frequency-plane write. Demapping the active bins
    /// is part of the store — a pilot picks the bins its stores name, and
    /// the active subcarriers of a data symbol are two runs of
    /// consecutive bins, so they move a line at a time with no staging
    /// copy.
    fn fft_store(&self, fb: &FrameBuffers, symbol: usize, ant: usize, grid: &[Cf32]) {
        let g = &self.geom;
        match self.cfg.cell.schedule.symbol(symbol) {
            SymbolType::Pilot => {
                // Fused channel estimation: LS divide by the known pilot,
                // written where `zf_task` reads it, one run of users at a
                // time: concurrent FFT tasks for other antennas (and,
                // time-orthogonal, other pilot symbols) write other
                // columns of the same group's row.
                let base = ant * g.k;
                for run in &self.pilot_stores[symbol] {
                    let cols = base + run.user..base + run.user + run.sources.len();
                    let out = fb.csi.row_mut(run.group, cols);
                    for (z, &(bin, inv)) in out.iter_mut().zip(&run.sources) {
                        *z = grid[bin] * inv;
                    }
                }
            }
            SymbolType::Uplink => {
                // Exactly this antenna's share of each block, so
                // concurrent antennas never alias; where shares meet
                // inside a line, even `stream_copy` writes it with cached
                // stores.
                for p in &self.pieces {
                    let out = fb.freq.row_mut(symbol, g.piece_cols(p, ant));
                    self.stores.freq.copy(&grid[p.bin..p.bin + p.len], out, self.tier);
                }
            }
            _ => {}
        }
    }

    /// ZF task: detector and precoder of one subcarrier group, from the
    /// group's `M x K` channel estimate as the pilot FFTs left it: the
    /// pseudo-inverse (Gram, Cholesky factor, triangular sweeps) is the
    /// detector, its power-normalised transpose the precoder. The
    /// detector fixes how much noise each user sees behind it —
    /// `noise * ||w_u||^2` — so the reciprocal demodulation scales LLRs
    /// by is published here, once per frame, not per block and symbol.
    /// Allocation-free: the channel copy, pseudo-inverse intermediates,
    /// detector and precoder all live in `WorkerScratch`.
    pub fn zf_task(&self, fb: &FrameBuffers, s: &mut WorkerScratch, group: usize) {
        s.zf_h.as_mut_slice().copy_from_slice(fb.csi.row(group));
        pinv_into(&s.zf_h, PinvMethod::Cholesky, &mut s.zf_pinv, &mut s.zf_det);
        s.zf_det.transpose_into(&mut s.zf_pre);
        normalize_precoder_in_place(&mut s.zf_pre);
        let noise = self.cfg.noise_power.max(1e-9);
        fb.det.row_mut(group, ..).copy_from_slice(s.zf_det.as_slice());
        fb.pre.row_mut(group, ..).copy_from_slice(s.zf_pre.as_slice());
        let inv_noise = fb.inv_noise.row_mut(group, ..);
        for (inv, row) in inv_noise.iter_mut().zip(s.zf_det.as_slice().chunks_exact(self.geom.m)) {
            // The sum runs over the antennas in order: a fixed
            // reduction order is part of the output.
            let norm_sqr: f32 = row.iter().map(|z| z.norm_sqr()).sum();
            *inv = 1.0 / (noise * norm_sqr).max(1e-12);
        }
    }

    /// Fused equalization + demodulation for `count` consecutive
    /// subcarriers starting at `sc_base` of one uplink symbol: per
    /// cache-line block, one planned GEMM of the group's detector with
    /// the block's antenna samples, then every user's row soft-demapped
    /// as it leaves the GEMM and quantised at the group's [`quant_scale`]
    /// in the same pass ([`Demapper::demap_quantized`]), straight into the
    /// `i8` LLR plane. `_frame` is unused — `fb` already is the frame's
    /// slot — and stays because the repo benchmark calls this signature.
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
        let row_llrs = g.block * self.cfg.cell.modulation.bits_per_symbol();
        let freq = fb.freq.row(symbol);
        for blk in g.task_blocks(sc_base, count) {
            let group = blk * g.block / g.zf_group;
            let (det, inv_noise) = (fb.det.row(group), fb.inv_noise.row(group));
            self.eq_gemm.run(det, &freq[g.block_cols(blk)], &mut s.user_block);
            for (user, row) in s.user_block.chunks_exact(g.block).enumerate() {
                let out = fb.llr.row_mut((symbol, user), blk * row_llrs..(blk + 1) * row_llrs);
                let scale = quant_scale(inv_noise[user], self.d_min_sqr);
                self.demapper.demap_quantized(row, inv_noise[user], scale, out);
            }
        }
    }

    /// LDPC decode task for one (symbol, user): re-inflate the received
    /// LLRs into the worker's staging buffer, run the fixed-point decoder
    /// straight into the frame's `decoded` plane. No allocation.
    pub fn decode_task(
        &self,
        fb: &FrameBuffers,
        s: &mut WorkerScratch,
        symbol: usize,
        user: usize,
    ) {
        let tx_len = self.rate_match.tx_len();
        let max_iters = self.cfg.cell.ldpc.max_iters;
        let active_rows = Some(self.rate_match.active_rows());
        let out = fb.decoded.row_mut((symbol, user), ..);
        let llr = fb.llr.row((symbol, user));
        self.rate_match.fill_llrs_into(&llr[..tx_len], &mut s.full_llr);
        let cfg = DecodeConfigI8 { max_iters, active_rows, ..Default::default() };
        let (success, _) = s.decoder.decode_into(&s.full_llr, &cfg, out);
        fb.decode_ok.store((symbol, user), 0, success as u8);
    }

    /// LDPC encode task (downlink): the deterministic MAC payload of
    /// `(frame, symbol, user)` — [`mac_payload`]'s bits, generated a word
    /// at a time — encoded on words and rate-matched into the packed
    /// `dl_bits` row, zero-padded to its end. Payload and codeword live on
    /// the stack; nothing is allocated.
    pub fn encode_task(&self, fb: &FrameBuffers, frame: u32, symbol: usize, user: usize) {
        let len = self.encoder.info_len();
        let mut info = [0u64; WordEncoder::MAX_INFO_WORDS];
        let info = &mut info[..len.div_ceil(64)];
        self.payload.fill(payload_seed(frame, symbol as u32, user as u32), len, info);
        self.encoder.encode_into(info, fb.dl_bits.row_mut((symbol, user), ..));
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
        let g = &self.geom;
        // A block's bits are whole bytes of the packed row
        // (`EngineConfig::validate`).
        let bytes = g.block * self.cfg.cell.modulation.bits_per_symbol() / 8;
        for blk in g.task_blocks(sc_base, count) {
            let sc = blk * g.block;
            // Build the K x block user-symbol matrix (modulation fusion).
            for (user, row) in s.user_block.chunks_exact_mut(g.block).enumerate() {
                let bits = fb.dl_bits.row((symbol, user));
                self.modulator.modulate_into(&bits[blk * bytes..(blk + 1) * bytes], row);
            }
            self.pre_gemm.run(fb.pre.row(sc / g.zf_group), &s.user_block, &mut s.ant_block);
            // This task owns the whole block, every antenna.
            let out = fb.dl_freq.row_mut(symbol, g.block_cols(blk));
            self.stores.freq.copy(&s.ant_block, out, self.tier);
        }
        self.stores.freq.fence();
    }

    /// IFFT task (downlink) for one antenna: [`Self::ifft_batch_task`]
    /// with a batch of one.
    pub fn ifft_task(&self, fb: &FrameBuffers, s: &mut WorkerScratch, symbol: usize, ant: usize) {
        self.ifft_batch_task(fb, s, symbol, ant, 1)
    }

    /// IFFT task (downlink) for `count` consecutive antennas from `base`:
    /// per antenna, gather its subcarriers, inverse-transform them, write
    /// the time-domain samples. The inverse is run as `conj(FFT(conj x)) /
    /// n`, and both conjugations ride passes the task makes anyway:
    /// [`FftPlan::forward_of`] on [`Conj`] steps scatters the antenna's lines of the
    /// `[block][antenna][8 sc]` blocks conjugated and bit-reversed into
    /// the grid — every bin, the guard bins as `conj(0)`, so the grid
    /// needs no clearing — and runs the butterflies forward on it, and the
    /// store multiplies by `conj · (1/n)` ([`stream_conj_scale`], or its
    /// cached twin for a `dl_time` plane that stays in cache). Those are
    /// the operations of [`agora_fft::Direction::Inverse`] in the same order, so the
    /// bits are its, and they do not depend on how antennas are grouped
    /// into tasks.
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
        // The output view checks the antenna run before the gather reads
        // by it.
        let out = fb.dl_time.row_mut(symbol, g.antenna_cols(base..base + count));
        let freq = fb.dl_freq.row(symbol);
        let grid = &mut s.grid[..n];
        let scale = 1.0 / n as f32;
        for (ant, out) in (base..).zip(out.chunks_exact_mut(g.samples)) {
            for &(p, at) in &self.ifft_staged {
                s.ifft_stage[at..at + p.len].copy_from_slice(&freq[g.piece_cols(&p, ant)]);
            }
            let stage = &s.ifft_stage;
            let steps = Conj(|t| {
                let step = match self.ifft_steps[t] {
                    IfftStep::Zero => return None,
                    IfftStep::Plane(col) => &freq[col + ant * g.block..][..8],
                    IfftStep::Staged(at) => &stage[at..at + 8],
                };
                Some(step.try_into().expect("eight bins"))
            });
            self.fft.forward_of(grid, &steps);
            // CP-less symbols, as in the uplink path.
            self.stores.dl_time.conj_scale(&grid[..g.samples], out, scale, self.tier);
        }
        self.stores.dl_time.fence();
    }

    /// Modulation scheme shortcut.
    pub fn modulation(&self) -> ModScheme {
        self.cfg.cell.modulation
    }
}

/// Fused IQ unpack + cyclic-prefix skip + bit-reversal + forward FFT:
/// reads the packed 12-bit IQ samples of one symbol payload and leaves
/// the transform of its FFT-sized tail (samples `skip..`) in `out`. One
/// pass replaces the unpack → tail copy → in-place permutation sequence
/// it grew from — the samples are touched once instead of three times —
/// and runs the first butterfly stages on the way: it is
/// [`FftPlan::forward_of`] of `IqSteps`, so it dispatches on `plan`'s
/// tier, and the vector bodies decode eight samples per step and place
/// four steps (AVX2) or eight (AVX-512) at a time as whole runs of the
/// grid. Every tier writes the bits of [`unpack_sample`] per sample
/// through the scalar transform. Reads no byte past the `skip +
/// out.len()` samples. The FFT task's front.
///
/// # Panics
/// Panics unless `out` is `plan`-sized and at least 8 samples, or if the
/// payload is shorter than `skip + out.len()` samples.
pub fn unpack_forward(payload: &[u8], skip: usize, plan: &FftPlan, out: &mut [Cf32]) {
    assert_eq!(out.len(), plan.len(), "output must be transform-sized");
    plan.forward_of(out, &IqSteps::new(payload, skip, out.len()));
}

/// The `n` packed IQ samples of a payload after its first `skip`, as the
/// [`Steps`] of a transform: three bytes per sample, I the low 12 bits of
/// the little-endian word and Q the next 12 ([`unpack_sample`]). Each body
/// reads one step's 24 bytes through a checked slice.
struct IqSteps<'a>(&'a [u8]);

impl<'a> IqSteps<'a> {
    /// The `n` samples of `payload` from sample `skip` on.
    ///
    /// # Panics
    /// Panics if the payload is shorter than `skip + n` samples.
    fn new(payload: &'a [u8], skip: usize, n: usize) -> Self {
        let range = skip * BYTES_PER_SAMPLE..(skip + n) * BYTES_PER_SAMPLE;
        Self(payload.get(range).expect("payload too short for skip + transform"))
    }

    fn bytes(&self, t: usize) -> &[u8; 24] {
        self.0[24 * t..24 * t + 24].try_into().expect("24 bytes")
    }
}

impl Steps for IqSteps<'_> {
    fn step(&self, t: usize) -> [Cf32; 8] {
        let b = self.bytes(t);
        [0, 1, 2, 3, 4, 5, 6, 7].map(|k| unpack_sample(b[3 * k..3 * k + 3].try_into().unwrap()))
    }

    /// Two 16-byte loads — samples 0-3 at the step, 4-7 four bytes into a
    /// load eight bytes on, so neither reads past the 24 bytes — and one
    /// byte shuffle zero-extend every sample to a 32-bit word; I and Q are
    /// sign-extended by a left and an arithmetic right shift. The
    /// conversion to float is exact, and so is the multiply by 2^-11 that
    /// stands for [`unpack_sample`]'s divide by 2048.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ymm(&self, t: usize) -> [core::arch::x86_64::__m256d; 2] {
        use core::arch::x86_64::*;
        #[rustfmt::skip]
        let words = _mm256_setr_epi8(
            0, 1, 2, -1, 3, 4, 5, -1, 6, 7, 8, -1, 9, 10, 11, -1,
            4, 5, 6, -1, 7, 8, 9, -1, 10, 11, 12, -1, 13, 14, 15, -1,
        );
        let unit = _mm256_set1_ps(1.0 / agora_phy::iq::FULL_SCALE);
        let p = self.bytes(t).as_ptr();
        let lo = _mm_loadu_si128(p as *const __m128i);
        let hi = _mm_loadu_si128(p.add(8) as *const __m128i);
        let w = _mm256_shuffle_epi8(_mm256_set_m128i(hi, lo), words);
        let i = _mm256_srai_epi32::<20>(_mm256_slli_epi32::<20>(w));
        let q = _mm256_srai_epi32::<20>(_mm256_slli_epi32::<8>(w));
        let i = _mm256_mul_ps(_mm256_cvtepi32_ps(i), unit);
        let q = _mm256_mul_ps(_mm256_cvtepi32_ps(q), unit);
        [_mm256_castps_pd(_mm256_unpacklo_ps(i, q)), _mm256_castps_pd(_mm256_unpackhi_ps(i, q))]
    }

    /// One masked 24-byte load and one byte permute put sample `k`'s three
    /// bytes in both 32-bit words of 64-bit lane `k`; shifts by 20 (I) and
    /// 8 (Q), then 20 arithmetic, sign-extend them in place, as [`Self::ymm`]
    /// does, and the same conversion and multiply follow.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi")]
    #[inline]
    unsafe fn zmm(&self, t: usize) -> core::arch::x86_64::__m512d {
        use core::arch::x86_64::*;
        /// Byte `b` of the permuted register: byte `min(b % 4, 2)` of
        /// sample `b / 8`.
        const PICK: [u8; 64] = {
            let mut pick = [0u8; 64];
            let mut b = 0;
            while b < 64 {
                let k = b / 8;
                let j = if b % 4 < 2 { b % 4 } else { 2 };
                pick[b] = (3 * k + j) as u8;
                b += 1;
            }
            pick
        };
        let bytes = _mm512_maskz_loadu_epi8(0xff_ffff, self.bytes(t).as_ptr() as *const i8);
        let w = _mm512_permutexvar_epi8(_mm512_loadu_si512(PICK.as_ptr() as *const _), bytes);
        let counts = _mm512_set1_epi64((8 << 32) | 20);
        let iq = _mm512_srai_epi32::<20>(_mm512_sllv_epi32(w, counts));
        let unit = _mm512_set1_ps(1.0 / agora_phy::iq::FULL_SCALE);
        _mm512_castps_pd(_mm512_mul_ps(_mm512_cvtepi32_ps(iq), unit))
    }
}

/// Builds [`Kernels::pilot_stores`]. ZF reads one channel estimate per
/// `(group, user)`: the one taken at the group's first subcarrier, or —
/// frequency-orthogonal pilots observe a user only every `K`-th
/// subcarrier — at the user's subcarrier of the `K`-aligned run that
/// subcarrier falls in (nearest estimate, flat-channel assumption, as
/// the paper's emulation). Each pilot symbol owes the stores whose source
/// it observes; one source feeds several groups when `K > zf_group`.
fn pilot_stores(cell: &CellConfig, map: &SubcarrierMap, g: &BufferGeometry) -> Vec<Vec<PilotRun>> {
    let pilots = PilotPlan::new(cell.pilot_scheme, g.k, g.q);
    let bins: Vec<usize> = map.active_bins().collect();
    let mut stores = vec![Vec::new(); g.symbols];
    for (ordinal, symbol) in cell.schedule.pilot_indices().into_iter().enumerate() {
        for group in 0..cell.num_zf_groups() {
            let first = group * g.zf_group;
            for user in 0..g.k {
                let sc = match pilots.scheme() {
                    PilotScheme::FrequencyOrthogonal => first / g.k * g.k + user,
                    PilotScheme::TimeOrthogonal => first,
                };
                // `CellConfig::validate`: K divides the band under
                // frequency-orthogonal pilots, so the run is whole.
                assert!(sc < g.q, "group {group} user {user}: no pilot at subcarrier {sc}");
                if let Some((_, p)) = pilots.owner(ordinal, sc).filter(|o| o.0 == user) {
                    let runs: &mut Vec<PilotRun> = &mut stores[symbol];
                    match runs.last_mut() {
                        Some(r) if r.group == group && r.user + r.sources.len() == user => {
                            r.sources.push((bins[sc], p.inv()));
                        }
                        _ => {
                            runs.push(PilotRun { group, user, sources: vec![(bins[sc], p.inv())] })
                        }
                    }
                }
            }
        }
    }
    stores
}

/// Builds [`Kernels::ifft_steps`] and [`Kernels::ifft_staged`] for an
/// `n`-point grid: a step that is the whole or a line-aligned part of one
/// piece reads the plane, a step no piece touches is zeros, and any other
/// step is staged. Staged steps take consecutive places in step order, so
/// a piece that runs from one staged step into the next is one copy.
fn ifft_steps(
    n: usize,
    pieces: &[Piece],
    g: &BufferGeometry,
) -> (Vec<IfftStep>, Vec<(Piece, usize)>) {
    let aligned = |p: &Piece| p.bin.is_multiple_of(8) && p.len.is_multiple_of(8);
    let mut steps = vec![IfftStep::Zero; n / 8];
    for p in pieces {
        let col = g.piece_cols(p, 0).start;
        for (k, t) in (p.bin / 8..(p.bin + p.len).div_ceil(8)).enumerate() {
            steps[t] = if aligned(p) { IfftStep::Plane(col + 8 * k) } else { IfftStep::Staged(0) };
        }
    }
    let mut rows = 0;
    for step in &mut steps {
        if let IfftStep::Staged(at) = step {
            (*at, rows) = (rows, rows + 8);
        }
    }
    let staged = pieces
        .iter()
        .filter(|p| !aligned(p))
        .map(|p| match steps[p.bin / 8] {
            IfftStep::Staged(at) => (*p, at + p.bin % 8),
            _ => unreachable!("an unaligned piece's steps are staged"),
        })
        .collect();
    (steps, staged)
}

/// Length of the staging row `steps` read.
fn staged_len(steps: &[IfftStep]) -> usize {
    8 * steps.iter().filter(|s| matches!(s, IfftStep::Staged(_))).count()
}

/// The generator state [`mac_payload`] starts `(frame, symbol, user)` from.
fn payload_seed(frame: u32, symbol: u32, user: u32) -> u64 {
    ((frame as u64) << 32) ^ ((symbol as u64) << 16) ^ (user as u64) ^ 0x9E37
}

/// One xorshift64 step: the payload generator's, and a linear map over
/// GF(2).
fn xorshift(mut state: u64) -> u64 {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state
}

/// Deterministic pseudo-random MAC payload for downlink experiments: bit
/// `i` is bit 0 of the generator state after `i + 1` xorshift steps from
/// [`payload_seed`]. One bit per byte, a step at a time — the oracle of
/// the word generator the encode task runs.
pub fn mac_payload(frame: u32, symbol: u32, user: u32, len: usize) -> Vec<u8> {
    let mut state = payload_seed(frame, symbol, user);
    (0..len)
        .map(|_| {
            state = xorshift(state);
            (state & 1) as u8
        })
        .collect()
}

/// [`mac_payload`] 64 bits at a time. A xorshift step is linear over
/// GF(2), so the next 64 output bits are a fixed 64 x 64 bit matrix times
/// the state, and the state 64 steps on is another. Both are kept as
/// eight 256-entry tables, one per state byte, holding the pair of
/// products of that byte's value: a word is eight lookups and XORs where
/// the bit-serial generator takes 64 dependent steps.
struct PayloadWords {
    /// `tables[b][v]`: (the next 64 output bits, the state 64 steps on) of
    /// the state `v << 8b`.
    tables: Box<[[(u64, u64); 256]; 8]>,
}

impl PayloadWords {
    fn new() -> Self {
        // Column `k` of each matrix: what state bit `k` alone makes.
        let mut cols = [(0u64, 0u64); 64];
        for (k, col) in cols.iter_mut().enumerate() {
            let mut state = 1u64 << k;
            for j in 0..64 {
                state = xorshift(state);
                col.0 |= (state & 1) << j;
            }
            col.1 = state;
        }
        let mut tables = Box::new([[(0u64, 0u64); 256]; 8]);
        for (b, table) in tables.iter_mut().enumerate() {
            for v in 1..256 {
                let (rest, col) = (table[v & (v - 1)], cols[8 * b + v.trailing_zeros() as usize]);
                table[v] = (rest.0 ^ col.0, rest.1 ^ col.1);
            }
        }
        Self { tables }
    }

    /// The first `len` payload bits from `seed`, packed LSB-first into
    /// `words` (`ceil(len / 64)` of them), the bits past `len` zero.
    fn fill(&self, seed: u64, len: usize, words: &mut [u64]) {
        assert_eq!(words.len(), len.div_ceil(64), "one word per 64 payload bits");
        let mut state = seed;
        for word in words.iter_mut() {
            let (mut out, mut next) = (0, 0);
            for (table, byte) in self.tables.iter().zip(state.to_le_bytes()) {
                let (o, s) = table[byte as usize];
                (out, next) = (out ^ o, next ^ s);
            }
            (*word, state) = (out, next);
        }
        if !len.is_multiple_of(64) {
            words[len / 64] &= (1 << (len % 64)) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::{FrameWindow, Plane};
    use agora_fft::Direction;
    use agora_math::GemmKernel;
    use proptest::prelude::*;

    #[test]
    fn kernels_build_for_paper_and_tiny_configs() {
        let _ = Kernels::new(EngineConfig::new(CellConfig::tiny_test(2), 2));
        let _ = Kernels::new(EngineConfig::new(CellConfig::emulated_rru(16, 4, 2), 4));
    }

    /// A tier the caller asks for above the CPU's is clamped: the stored
    /// tier (which the unpack and the plane stores dispatch on), the
    /// transforms' and the GEMM plans' never exceed what the CPU runs.
    #[test]
    fn kernels_clamp_the_tier_to_the_cpu() {
        let cpu = SimdTier::cached();
        for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            let k = Kernels::with_tier(EngineConfig::new(CellConfig::tiny_test(2), 1), tier);
            assert_eq!(k.tier, tier.min(cpu), "{tier:?}");
            assert!(k.fft.tier() <= k.tier, "{tier:?}");
            for plan in [k.eq_gemm, k.pre_gemm] {
                let wide = matches!(plan.kernel(), GemmKernel::Avx2 | GemmKernel::Avx512);
                assert!(k.tier >= SimdTier::Avx2 || !wide, "{tier:?}: {:?}", plan.kernel());
                assert!(k.tier >= SimdTier::Avx512 || plan.kernel() != GemmKernel::Avx512);
            }
        }
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

    /// `mac_payload` packed LSB-first into words, as the encode task
    /// takes its payload.
    fn packed_payload(frame: u32, symbol: u32, user: u32, len: usize) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, b) in mac_payload(frame, symbol, user, len).into_iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        words
    }

    fn payload_words(
        gen: &PayloadWords,
        frame: u32,
        symbol: u32,
        user: u32,
        len: usize,
    ) -> Vec<u64> {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        gen.fill(payload_seed(frame, symbol, user), len, &mut words);
        words
    }

    /// The word generator is the bit-serial one: every length 0..=300,
    /// and the payload of every cell shape in the tree.
    #[test]
    fn payload_words_match_mac_payload() {
        let gen = PayloadWords::new();
        for (frame, symbol, user) in [(0, 0, 0), (1, 2, 3), (u32::MAX, 13, 15), (7, 0x9E, 0x37)] {
            for len in 0..=300 {
                let want = packed_payload(frame, symbol, user, len);
                assert_eq!(payload_words(&gen, frame, symbol, user, len), want, "{len} bits");
            }
        }
        let cells = [
            CellConfig::tiny_test(1),
            CellConfig::emulated_rru(64, 16, 1),
            CellConfig::over_the_air(8, 1),
        ];
        for cell in cells {
            let len = cell.info_bits_per_symbol();
            assert_eq!(payload_words(&gen, 3, 5, 1, len), packed_payload(3, 5, 1, len), "{len}");
        }
    }

    /// Every `(frame < 8, symbol < 14, user < 16)` payload of the 64x16
    /// cell, word generator against bit-serial. Release only
    /// (`scripts/ci.sh` runs it there).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn every_64x16_payload_matches_mac_payload() {
        let gen = PayloadWords::new();
        let len = CellConfig::emulated_rru(64, 16, 1).info_bits_per_symbol();
        for frame in 0..8 {
            for symbol in 0..14 {
                for user in 0..16 {
                    let got = payload_words(&gen, frame, symbol, user, len);
                    assert!(
                        got == packed_payload(frame, symbol, user, len),
                        "{frame}/{symbol}/{user}"
                    );
                }
            }
        }
    }

    /// The IFFT task against the unfused pipeline on every tier and step
    /// layout: scatter the antenna's subcarriers into a zeroed grid, run
    /// the whole inverse transform (its own bit reversal and conjugation
    /// passes), copy out. At 256/240 and 2048/1200 with blocks of 8 (plane
    /// and staged steps), and at 512/300 and 256/240 with blocks of 4
    /// (staged steps only).
    #[test]
    fn ifft_task_matches_the_unfused_inverse_on_every_layout() {
        use crate::buffers::FrameWindow;
        use agora_phy::frame::FrameSchedule;
        let (mut ota, mut narrow) = (CellConfig::over_the_air(1, 0), CellConfig::tiny_test(0));
        (ota.num_antennas, narrow.num_antennas) = (4, 3);
        let wide = CellConfig::emulated_rru(4, 2, 0);
        for (mut cell, block) in [(CellConfig::tiny_test(0), 8), (wide, 8), (ota, 4), (narrow, 4)] {
            cell.schedule = FrameSchedule::parse("PD").unwrap();
            for tier in SimdTier::supported() {
                let mut cfg = EngineConfig::new(cell.clone(), 1);
                cfg.demod_block = block;
                cfg.clamp_batches();
                let k = Kernels::with_tier(cfg, tier);
                let (g, n) = (k.geom, cell.fft_size);
                let what = format!("{n}/{} block {block} {tier:?}", g.q);
                assert!(k.ifft_steps.iter().any(|s| matches!(s, IfftStep::Staged(_))), "{what}");
                let w = FrameWindow::new(g, 2);
                let fb = w.slot(0);
                let mut state = 0x2545_F491_4F6C_DD1Du64;
                for z in fb.dl_freq.row_mut(1, ..) {
                    let mut next = || {
                        state = xorshift(state);
                        (state >> 40) as f32 / (1 << 23) as f32 - 1.0
                    };
                    *z = Cf32::new(next(), next());
                }
                let mut s = k.scratch();
                (0..g.m).for_each(|a| k.ifft_task(fb, &mut s, 1, a));
                let freq = fb.dl_freq.row(1);
                let (mut active, mut grid) = (vec![Cf32::ZERO; g.q], vec![Cf32::ZERO; n]);
                for (ant, got) in fb.dl_time.row(1).chunks_exact(g.samples).enumerate() {
                    for (sc, v) in active.iter_mut().enumerate() {
                        *v = freq[g.sc_col(sc, ant)];
                    }
                    map_of(&k).map_symbols(&active, &mut grid);
                    k.fft.execute(&mut grid, Direction::Inverse);
                    assert!(bits(got) == bits(&grid), "{what}: antenna {ant}");
                }
            }
        }
    }

    /// Every tier's FFT tasks (a pilot and an uplink symbol) and IFFT
    /// tasks write the planes the AVX2 tier's do, at 8x2 and 64x16:
    /// byte-identical on every vector tier, within the transforms'
    /// tolerance on the scalar oracle (its multiplies by `1` and `-i` round
    /// where the vector bodies' swaps do not).
    #[test]
    fn fft_and_ifft_tasks_write_the_same_planes_on_every_tier() {
        for cell in [CellConfig::tiny_test(1), CellConfig::emulated_rru(64, 16, 1)] {
            let (k, w) = primed(cell, "PUD", |_| {});
            let (g, fb) = (k.geom, w.slot(0));
            let what = format!("{}x{}", g.m, g.k);
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            for z in fb.dl_freq.row_mut(2, ..) {
                let mut next = || {
                    state = xorshift(state);
                    (state >> 40) as f32 / (1 << 23) as f32 - 1.0
                };
                *z = Cf32::new(next(), next());
            }
            let planes = |tier| {
                let k = Kernels::with_tier(k.cfg.clone(), tier);
                let mut s = k.scratch();
                [&fb.csi, &fb.freq, &fb.dl_time].into_iter().for_each(clear);
                for ant in 0..g.m {
                    k.fft_task(fb, &mut s, 0, ant);
                    k.fft_task(fb, &mut s, 1, ant);
                    k.ifft_task(fb, &mut s, 2, ant);
                }
                [&fb.csi, &fb.freq, &fb.dl_time].map(plane_bits)
            };
            let avx2 = planes(SimdTier::Avx2);
            let scalar = planes(SimdTier::Scalar);
            for (i, (got, want)) in scalar.iter().zip(&avx2).enumerate() {
                let err = got
                    .iter()
                    .zip(want)
                    .map(|(a, b)| {
                        (f32::from_bits(a.0) - f32::from_bits(b.0))
                            .abs()
                            .max((f32::from_bits(a.1) - f32::from_bits(b.1)).abs())
                    })
                    .fold(0.0, f32::max);
                assert!(err < 1e-3, "{what} plane {i}: scalar off by {err}");
            }
            for tier in SimdTier::supported().filter(|&t| t > SimdTier::Avx2) {
                for (i, (got, want)) in planes(tier).iter().zip(&avx2).enumerate() {
                    assert!(got == want, "{what} plane {i}: {tier:?}");
                }
            }
        }
    }

    #[test]
    fn scratch_sizes_match_geometry() {
        let k = Kernels::new(EngineConfig::new(CellConfig::tiny_test(2), 2));
        let s = k.scratch();
        assert_eq!(s.grid.len(), k.cfg.batch.fft.max(1) * k.cfg.cell.fft_size);
        assert!((s.grid.as_ptr() as usize).is_multiple_of(agora_math::simd::CACHE_LINE));
        assert_eq!(s.full_llr.len(), k.rate_match().codeword_len());
        assert_eq!(s.zf_h.shape(), (k.geom.m, k.geom.k));
        assert_eq!(s.zf_det.shape(), (k.geom.k, k.geom.m));
        assert_eq!(s.zf_pre.shape(), (k.geom.m, k.geom.k));
    }

    /// The quantiser's invariant: every nominal point of every scheme
    /// quantises to the same integers whatever the noise scale, its
    /// weakest bit (a Gray neighbour at `d_min`) to `NOMINAL_LLR_STEPS` —
    /// through the fused demapper `demod_task` runs, on both tiers.
    #[test]
    fn nominal_points_quantise_alike_at_any_noise_scale() {
        use agora_phy::modulation::map_symbol;
        use ModScheme::*;
        for scheme in [Bpsk, Qpsk, Qam16, Qam64, Qam256] {
            let bps = scheme.bits_per_symbol();
            // Every point in one row, so the vector body takes all of
            // them but BPSK's.
            let points: Vec<Cf32> =
                (0..scheme.order() as u32).map(|v| map_symbol(scheme, v)).collect();
            for tier in SimdTier::supported() {
                let demapper = Demapper::new(scheme, tier);
                let at = |inv_noise: f32| {
                    let mut q = vec![0i8; points.len() * bps];
                    let scale = quant_scale(inv_noise, d_min_sqr(scheme));
                    demapper.demap_quantized(&points, inv_noise, scale, &mut q);
                    q
                };
                let unit = at(1.0);
                for (v, q) in unit.chunks_exact(bps).enumerate() {
                    let weakest = q.iter().map(|l| l.unsigned_abs()).min();
                    assert_eq!(weakest, Some(NOMINAL_LLR_STEPS as u8), "{scheme:?} point {v}");
                }
                for inv_noise in [1e3, 1e6] {
                    assert_eq!(at(inv_noise), unit, "{scheme:?} {tier:?} at {inv_noise}");
                }
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
                    clear(plane);
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
                    plane_bits(plane)
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
        let freq = fb.dl_freq.row(2);
        let (mut active, mut grid) = (vec![Cf32::ZERO; g.q], vec![Cf32::ZERO; g.samples]);
        for (ant, got) in fb.dl_time.row(2).chunks_exact(g.samples).enumerate() {
            for (sc, v) in active.iter_mut().enumerate() {
                *v = freq[g.sc_col(sc, ant)];
            }
            map_of(k).map_symbols(&active, &mut grid);
            k.fft.execute(&mut grid, Direction::Inverse);
            assert_eq!(bits(got), bits(&grid), "antenna {ant}");
        }
    }

    /// Cached and streamed stores leave the same bytes in `freq` (FFT
    /// task), `dl_freq` (precode task) and `dl_time` (IFFT task), on every
    /// tier; and the policy follows the plane size: an 8x2 frame's planes
    /// stay in cache, a 64x16 frame's stream.
    #[test]
    fn cached_and_streamed_planes_are_byte_equal() {
        use crate::inline_engine::InlineProcessor;
        use agora_fronthaul::{RruConfig, RruEmulator};
        use agora_phy::frame::FrameSchedule;

        let all = |s| PlaneStores { freq: s, dl_time: s };
        let policy = |k: &Kernels| [k.stores.freq, k.stores.dl_time];
        let paper = Kernels::new(EngineConfig::new(CellConfig::emulated_rru(64, 16, 13), 1));
        assert_eq!(policy(&paper), [Stores::Streamed; 2]);

        let mut cell = CellConfig::tiny_test(2);
        cell.schedule = FrameSchedule::parse("PUD").unwrap();
        let mut rru = RruEmulator::new(cell.clone(), RruConfig::default());
        let (packets, _) = rru.generate_frame(0);
        let mut cfg = EngineConfig::new(cell, 1);
        cfg.noise_power = rru.noise_power();
        let mut proc = InlineProcessor::new(cfg.clone());
        proc.process_frame(0, &packets);
        assert_eq!(policy(proc.kernels()), [Stores::Cached; 2]);
        let fb = proc.buffers(0);
        let (uplink, downlink) = (1, 2);
        for tier in SimdTier::supported() {
            let mut k = Kernels::with_tier(cfg.clone(), tier);
            let mut s = k.scratch();
            let g = k.geom;
            let mut written = Vec::new();
            for stores in [Stores::Cached, Stores::Streamed] {
                k.stores = all(stores);
                for plane in [&fb.freq, &fb.dl_freq, &fb.dl_time] {
                    clear(plane);
                }
                (0..g.m).for_each(|ant| k.fft_task(fb, &mut s, uplink, ant));
                k.precode_task(fb, &mut s, downlink, 0, g.q);
                (0..g.m).for_each(|ant| k.ifft_task(fb, &mut s, downlink, ant));
                written.push([&fb.freq, &fb.dl_freq, &fb.dl_time].map(plane_bits));
            }
            for (plane, (cached, streamed)) in
                ["freq", "dl_freq", "dl_time"].iter().zip(written[0].iter().zip(&written[1]))
            {
                assert!(cached.iter().any(|&b| b != (0, 0)), "{tier:?}: {plane} untouched");
                assert!(cached == streamed, "{tier:?}: {plane} differs");
            }
        }
    }

    /// The subcarrier layout `k` was built for.
    fn map_of(k: &Kernels) -> SubcarrierMap {
        SubcarrierMap::new(k.cfg.cell.fft_size, k.geom.q)
    }

    fn bits(v: &[Cf32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Every element of `plane`, as bits.
    fn plane_bits(plane: &Plane<Cf32>) -> Vec<(u32, u32)> {
        // SAFETY (here and in `clear`): the tests run every task on their
        // own thread, so none is in flight, and hold no view across it.
        bits(unsafe { plane.view(None) })
    }

    fn clear(plane: &Plane<Cf32>) {
        unsafe { plane.fill(Cf32::ZERO) }
    }

    /// Kernels for `cell` with its schedule replaced by `schedule`, and a
    /// frame window whose slot 0 holds a pseudo-random packet for every
    /// antenna of every pilot and uplink symbol — all an FFT task needs.
    fn primed(
        mut cell: CellConfig,
        schedule: &str,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> (Kernels, FrameWindow) {
        use agora_fronthaul::{encode, PacketBuf, PacketDir, PacketHeader};
        use agora_phy::frame::FrameSchedule;
        cell.schedule = FrameSchedule::parse(schedule).unwrap();
        let mut cfg = EngineConfig::new(cell, 1);
        tweak(&mut cfg);
        let k = Kernels::new(cfg);
        let w = FrameWindow::new(k.geom, 2);
        let received =
            |s| matches!(k.cfg.cell.schedule.symbol(s), SymbolType::Pilot | SymbolType::Uplink);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for symbol in (0..k.geom.symbols).filter(|&s| received(s)) {
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
                let pkt = PacketBuf::Heap(encode(&hdr, &payload));
                // SAFETY: single-threaded test — no concurrent access.
                unsafe { w.slot(0).rx_pkts.store(symbol, antenna, pkt) };
            }
        }
        (k, w)
    }

    /// The fused store's contract, at 8x2 and 64x16: (a) a batched FFT
    /// task of any `count` up to `batch.fft`, off a zero and a non-zero
    /// base, leaves the `csi` (pilot) and `freq` (uplink) planes
    /// byte-equal to `count` single tasks; (b) what the fused store
    /// leaves equals the unfused pipeline — unpack, transform,
    /// `demap_symbols`, then one element at a time to its place in the
    /// block layout (for CSI, `oracle_csi_rows`).
    #[test]
    fn fused_fft_store_matches_unfused_reference_for_every_batch() {
        for cell in [CellConfig::tiny_test(1), CellConfig::emulated_rru(64, 16, 1)] {
            let what = format!("{}x{}", cell.num_antennas, cell.num_users);
            let (k, w) = primed(cell.clone(), "PUD", |cfg| cfg.batch.fft = 4);
            let (g, n, fb) = (k.geom, k.cfg.cell.fft_size, w.slot(0));
            let mut s = k.scratch();
            for (symbol, plane) in [(0usize, &fb.csi), (1, &fb.freq)] {
                for count in 1..=k.cfg.batch.fft {
                    for base in [0, g.m - count] {
                        let mut run = |batched: bool| {
                            clear(plane);
                            if batched {
                                k.fft_batch_task(fb, &mut s, symbol, base, count);
                            } else {
                                (base..base + count)
                                    .for_each(|a| k.fft_task(fb, &mut s, symbol, a));
                            }
                            plane_bits(plane)
                        };
                        let batched = run(true);
                        assert!(batched.iter().any(|&b| b != (0, 0)), "{what}: untouched");
                        // Not `assert_eq!`: a failure would print both planes.
                        assert!(batched == run(false), "{what} sym {symbol} {base}+{count}");
                    }
                }
                // The whole symbol, then the unfused reference.
                (0..g.m).for_each(|a| k.fft_task(fb, &mut s, symbol, a));
                if symbol == 0 {
                    assert!(plane_bits(plane) == bits(&oracle_csi_rows(&k, fb)), "{what}: csi");
                    continue;
                }
                let got = fb.freq.row(symbol);
                let mut active = vec![Cf32::ZERO; g.q];
                for ant in 0..g.m {
                    let grid = naive_forward(fb.rx_pkts.payload(symbol, ant), g.samples - n, n);
                    map_of(&k).demap_symbols(&grid, &mut active);
                    for (sc, &y) in active.iter().enumerate() {
                        let col = g.sc_col(sc, ant);
                        assert_eq!(
                            bits(&got[col..col + 1]),
                            bits(&[y]),
                            "{what} sym {symbol} ant {ant} sc {sc}"
                        );
                    }
                }
            }
        }
    }

    /// The CSI semantics this layout replaced, kept as the oracle: a
    /// full-resolution `[sc][antenna][user]` plane takes every pilot
    /// symbol's per-subcarrier LS estimate through the unfused pipeline
    /// (unpack, transform, `demap_symbols`, times the reference's
    /// reciprocal); then, frequency-orthogonal pilots only, the row at
    /// each ZF group's first subcarrier is completed with the nearest
    /// estimate of every user it does not observe itself. Returns the
    /// rows ZF read, `[group][antenna][user]`.
    fn oracle_csi_rows(k: &Kernels, fb: &FrameBuffers) -> Vec<Cf32> {
        let (g, n) = (k.geom, k.cfg.cell.fft_size);
        let pilots = PilotPlan::new(k.cfg.cell.pilot_scheme, g.k, g.q);
        let mk = g.m * g.k;
        let mut full = vec![Cf32::ZERO; g.q * mk];
        let mut active = vec![Cf32::ZERO; g.q];
        for (ordinal, symbol) in k.cfg.cell.schedule.pilot_indices().into_iter().enumerate() {
            for ant in 0..g.m {
                let grid = naive_forward(fb.rx_pkts.payload(symbol, ant), g.samples - n, n);
                map_of(k).demap_symbols(&grid, &mut active);
                for (sc, &y) in active.iter().enumerate() {
                    if let Some((user, p)) = pilots.owner(ordinal, sc) {
                        full[sc * mk + ant * g.k + user] = y * p.inv();
                    }
                }
            }
        }
        let rows = (0..g.q).step_by(g.zf_group);
        if pilots.scheme() == PilotScheme::FrequencyOrthogonal {
            for sc in rows.clone() {
                let anchor = (sc / g.k) * g.k; // first subcarrier of this K-group
                for user in (0..g.k).filter(|&u| anchor + u != sc && anchor + u < g.q) {
                    for at in (0..g.m).map(|ant| ant * g.k + user) {
                        full[sc * mk + at] = full[(anchor + user) * mk + at];
                    }
                }
            }
        }
        rows.flat_map(|sc| full[sc * mk..(sc + 1) * mk].to_vec()).collect()
    }

    /// The pilot store writes `csi[group][antenna][user]` directly; the
    /// layout it replaced estimated every subcarrier and copied the
    /// nearest estimates into the group's row afterwards. Over `K` in
    /// {1, 2, 4, 16}, ZF groups of 4, 8 and 16 (`K > zf_group`, and a
    /// partial last group at 300 subcarriers), both pilot schemes and
    /// `M` in {K, 2K}, every row the pilot tasks leave is bit-equal to
    /// the row the oracle's ZF read, and `zf_task` publishes the `det`,
    /// `pre` and `inv_noise` planes of the pseudo-inverse of that row. A
    /// pilot symbol no user owns stores nothing.
    #[test]
    fn pilot_store_leaves_the_rows_the_old_layout_fed_zf() {
        use agora_math::{normalize_precoder, pinv};
        let schemes = [PilotScheme::FrequencyOrthogonal, PilotScheme::TimeOrthogonal];
        let mut checked = 0;
        for (scheme, users, zf_group, (fft_size, q), twice) in schemes
            .into_iter()
            .flat_map(|s| [1usize, 2, 4, 16].map(|k| (s, k)))
            .flat_map(|(s, k)| [4usize, 8, 16].map(|z| (s, k, z)))
            .flat_map(|(s, k, z)| [(256usize, 240usize), (512, 300)].map(|f| (s, k, z, f)))
            .flat_map(|(s, k, z, f)| [false, true].map(|t| (s, k, z, f, t)))
        {
            let mut cell = CellConfig::tiny_test(1);
            cell.pilot_scheme = scheme;
            (cell.num_users, cell.num_antennas) = (users, users << twice as usize);
            (cell.zf_group, cell.fft_size, cell.num_data_sc) = (zf_group, fft_size, q);
            // One pilot symbol more than the scheme needs: a second
            // full-band one (frequency-orthogonal), an unowned one (time).
            let pilots = scheme.pilot_symbols(users) + 1;
            let what = format!("{scheme:?} {}x{users} group {zf_group} of {q}", cell.num_antennas);
            if scheme == PilotScheme::FrequencyOrthogonal && !q.is_multiple_of(users) {
                // Not a valid cell: 16 users on 300 subcarriers.
                continue;
            }
            // Blocks of 4 divide both bands and every group size.
            let schedule = format!("{}UD", "P".repeat(pilots));
            let (k, w) = primed(cell, &schedule, |cfg| cfg.demod_block = 4);
            let (g, mut s, fb) = (k.geom, k.scratch(), w.slot(0));
            for symbol in 0..pilots {
                (0..g.m).for_each(|a| k.fft_task(fb, &mut s, symbol, a));
            }
            if scheme == PilotScheme::TimeOrthogonal {
                assert!(k.pilot_stores[users].is_empty(), "{what}: unowned pilot stores");
            }
            let want = oracle_csi_rows(&k, fb);
            assert!(want.iter().any(|&z| z != Cf32::ZERO), "{what}: oracle is empty");
            // Not `assert_eq!`: a failure would print both planes.
            assert!(plane_bits(&fb.csi) == bits(&want), "{what}: csi rows");

            for (group, row) in want.chunks_exact(g.m * g.k).enumerate() {
                k.zf_task(fb, &mut s, group);
                let h = CMat::from_fn(g.m, g.k, |a, u| row[a * g.k + u]);
                let det = pinv(&h, PinvMethod::Cholesky);
                let pre = normalize_precoder(&det.transpose());
                let got_det = fb.det.row(group);
                assert!(bits(got_det) == bits(det.as_slice()), "{what}: det, group {group}");
                let got_pre = fb.pre.row(group);
                assert!(bits(got_pre) == bits(pre.as_slice()), "{what}: pre, group {group}");
                // What `demod_task` summed per block and user before ZF
                // published it.
                let noise = k.cfg.noise_power.max(1e-9);
                let got_inv = fb.inv_noise.row(group);
                for (user, w) in det.as_slice().chunks_exact(g.m).enumerate() {
                    let nv = noise * w.iter().map(|z| z.norm_sqr()).sum::<f32>();
                    let want = 1.0 / nv.max(1e-12);
                    assert_eq!(got_inv[user].to_bits(), want.to_bits(), "{what}: {group}/{user}");
                }
            }
            assert_eq!(want.len(), k.shape.zf_groups * g.m * g.k);
            checked += 1;
        }
        assert_eq!(checked, 96 - 6, "all but 16 users on 300 subcarriers, frequency-orthogonal");
    }

    /// Two users on the same channel make the Gram matrix singular, so
    /// the Cholesky factor fails and the ZF task falls back to the SVD
    /// pseudo-inverse: it publishes exactly `pinv_svd(h, 1e-5)` as the
    /// detector, and a finite precoder and noise scales.
    #[test]
    fn zf_of_coinciding_users_publishes_the_svd_detector() {
        use agora_math::{pinv_svd, CholScratch, Cholesky, SimdTier};
        let (k, w) = primed(CellConfig::tiny_test(1), "PUD", |_| {});
        let (g, mut s, fb) = (k.geom, k.scratch(), w.slot(0));
        let h = CMat::from_fn(g.m, g.k, |a, _| Cf32::new(0.3 + a as f32, 0.7 - a as f32));
        for a in 0..g.m {
            for u in 0..g.k {
                fb.csi.store(0, a * g.k + u, h[(a, u)]);
            }
        }
        let gram = h.hermitian().matmul(&h);
        let mut l = CMat::zeros(g.k, g.k);
        let pd = Cholesky::factor_into(&gram, &mut l, &mut CholScratch::new(g.k), SimdTier::Scalar);
        assert!(pd.is_err(), "coinciding users must fail the factor");

        k.zf_task(fb, &mut s, 0);
        let det = pinv_svd(&h, 1e-5);
        assert!(bits(fb.det.row(0)) == bits(det.as_slice()), "det is not the SVD fallback");
        assert!(fb.pre.row(0).iter().all(|z| z.re.is_finite() && z.im.is_finite()), "pre");
        assert!(fb.inv_noise.row(0).iter().all(|v| v.is_finite()), "inv_noise");
    }

    const MARKER: Cf32 = Cf32::new(7.0, -7.0);

    /// Sets every plane of `fb` to a marker.
    fn mark(fb: &FrameBuffers) {
        // SAFETY (here and in `written`): single-threaded test, no view
        // alive across it.
        unsafe {
            for plane in [&fb.freq, &fb.csi, &fb.det, &fb.pre, &fb.dl_freq, &fb.dl_time] {
                plane.fill(MARKER);
            }
            for plane in [&fb.decoded, &fb.decode_ok, &fb.dl_bits] {
                plane.fill(7);
            }
            fb.inv_noise.fill(7.0);
            fb.llr.fill(7);
        }
    }

    /// The planes of `fb` something wrote since [`mark`].
    fn written(fb: &FrameBuffers) -> Vec<&'static str> {
        let cf32 = [
            ("freq", &fb.freq),
            ("csi", &fb.csi),
            ("det", &fb.det),
            ("pre", &fb.pre),
            ("dl_freq", &fb.dl_freq),
            ("dl_time", &fb.dl_time),
        ];
        let u8s =
            [("decoded", &fb.decoded), ("decode_ok", &fb.decode_ok), ("dl_bits", &fb.dl_bits)];
        let mut names = Vec::new();
        unsafe {
            for (name, plane) in cf32 {
                if plane.view(None).iter().any(|&z| z != MARKER) {
                    names.push(name);
                }
            }
            for (name, plane) in u8s {
                if plane.view(None).iter().any(|&b| b != 7) {
                    names.push(name);
                }
            }
            if fb.inv_noise.view(None).iter().any(|&x| x != 7.0) {
                names.push("inv_noise");
            }
            if fb.llr.view(None).iter().any(|&l| l != 7) {
                names.push("llr");
            }
        }
        names
    }

    /// The block tasks write whole blocks, so a message that starts or
    /// ends inside a block must panic — in release too — before anything
    /// lands on a neighbour's columns.
    #[test]
    fn a_task_that_splits_a_block_panics_instead_of_writing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (k, w) = primed(CellConfig::tiny_test(1), "PUD", |_| {});
        let (g, mut s, fb) = (k.geom, k.scratch(), w.slot(0));
        let (uplink, downlink) = (1, 2);
        mark(fb);
        let half = g.block / 2;
        for (base, count) in [(half, g.block), (0, g.block + half), (g.q - half, half)] {
            let precode = catch_unwind(AssertUnwindSafe(|| {
                k.precode_task(fb, &mut s, downlink, base, count)
            }));
            assert!(precode.is_err(), "precode {base}+{count} ran");
            let demod =
                catch_unwind(AssertUnwindSafe(|| k.demod_task(fb, &mut s, 0, uplink, base, count)));
            assert!(demod.is_err(), "demod {base}+{count} ran");
        }
        assert_eq!(written(fb), Vec::<&str>::new());
        // Whole blocks anywhere in the band are a task.
        k.precode_task(fb, &mut s, downlink, g.q - g.block, g.block);
        k.demod_task(fb, &mut s, 0, uplink, g.block, 2 * g.block);
        assert_eq!(written(fb), ["dl_freq", "llr"]);
    }

    /// A message naming a row or an antenna run the frame does not have
    /// must panic — in release too — before any plane is written: a decode
    /// for user `K` (it would land on the next symbol's user 0), an IFFT
    /// run past the last antenna (the next symbol's samples), an FFT run
    /// past it (the next symbol's antenna-0 packet, stored into the next
    /// block) and a ZF task for group `groups`.
    #[test]
    fn a_task_out_of_range_panics_instead_of_writing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // No symbol named below is the frame's last.
        let (k, w) = primed(CellConfig::tiny_test(1), "PUUDD", |_| {});
        let (g, mut s, fb) = (k.geom, k.scratch(), w.slot(0));
        let (uplink, downlink) = (1, 3);
        mark(fb);
        let mut refused = |what: &str, task: &dyn Fn(&mut WorkerScratch)| {
            assert!(catch_unwind(AssertUnwindSafe(|| task(&mut s))).is_err(), "{what} ran");
            assert_eq!(written(fb), Vec::<&str>::new(), "{what}");
        };
        refused("decode of user K", &|s| k.decode_task(fb, s, uplink, g.k));
        refused("IFFT past antenna M", &|s| k.ifft_batch_task(fb, s, downlink, g.m - 1, 2));
        refused("FFT past antenna M", &|s| k.fft_batch_task(fb, s, uplink, g.m - 1, 2));
        refused("ZF of group `groups`", &|s| k.zf_task(fb, s, k.shape.zf_groups));
    }

    /// The unfused front of an FFT task, the pipeline [`unpack_forward`]
    /// replaced: every sample of the payload unpacked, the FFT-sized tail
    /// past `skip` copied out and run through the full transform, with
    /// its own permutation pass, on the scalar tier.
    fn naive_forward(payload: &[u8], skip: usize, n: usize) -> Vec<Cf32> {
        let mut time = Vec::new();
        agora_phy::iq::unpack_samples(payload, &mut time);
        let mut x = time[skip..skip + n].to_vec();
        FftPlan::with_tier(n, SimdTier::Scalar).execute(&mut x, Direction::Forward);
        x
    }

    /// Step `t` of `steps` as `tier`'s body decodes it, one `u64` of bits
    /// per sample in order (the AVX2 body's two registers hold samples
    /// `[0 1 | 4 5]` and `[2 3 | 6 7]`). Called only with a tier the CPU
    /// supports.
    fn step_bits(steps: &IqSteps, t: usize, tier: SimdTier) -> [u64; 8] {
        #[cfg(target_arch = "x86_64")]
        use core::arch::x86_64::{__m256d, __m512d};
        #[cfg(target_arch = "x86_64")]
        // SAFETY (both arms): the caller's tier is one the CPU supports,
        // and 64 bytes of registers are 64 bytes of bits.
        match tier {
            SimdTier::Avx512 => {
                return unsafe { core::mem::transmute::<__m512d, [u64; 8]>(steps.zmm(t)) };
            }
            SimdTier::Avx2 => {
                let [a, b] =
                    unsafe { core::mem::transmute::<[__m256d; 2], [[u64; 4]; 2]>(steps.ymm(t)) };
                return [a[0], a[1], b[0], b[1], a[2], a[3], b[2], b[3]];
            }
            SimdTier::Scalar => {}
        }
        steps.step(t).map(|z| z.re.to_bits() as u64 | (z.im.to_bits() as u64) << 32)
    }

    /// The fused unpack, bit-reversal and transform must be bit-identical
    /// to the naive pipeline it replaced: unpack everything, copy the
    /// FFT-sized tail, run the full transform — at the test size and the
    /// engine's 2048, on every tier.
    #[test]
    fn fused_unpack_forward_matches_naive_pipeline() {
        use agora_phy::iq::pack_samples;

        let skip = 16; // emulate a cyclic prefix ahead of the window
        for n in [64, 2048] {
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
            let naive = naive_forward(&payload, skip, n);
            for tier in SimdTier::supported() {
                let mut fused = vec![Cf32::ZERO; n];
                unpack_forward(&payload, skip, &FftPlan::with_tier(n, tier), &mut fused);
                assert!(bits(&naive) == bits(&fused), "n {n} on {tier:?}");
            }
        }
    }

    /// Every one of the 2^24 sample words decodes to the same bits in
    /// every tier's step body. Release only (`scripts/ci.sh` runs it
    /// there).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn every_sample_word_unpacks_alike_on_every_tier() {
        const N: usize = 4096;
        let mut payload = vec![0u8; N * BYTES_PER_SAMPLE];
        for first in (0..1u32 << 24).step_by(N) {
            for (word, bytes) in (first..).zip(payload.chunks_exact_mut(BYTES_PER_SAMPLE)) {
                bytes.copy_from_slice(&word.to_le_bytes()[..BYTES_PER_SAMPLE]);
            }
            let steps = IqSteps::new(&payload, 0, N);
            for t in 0..N / 8 {
                let want = step_bits(&steps, t, SimdTier::Scalar);
                for tier in SimdTier::supported().skip(1) {
                    let word = first as usize + 8 * t;
                    assert!(step_bits(&steps, t, tier) == want, "{tier:?}: words {word}..");
                }
            }
        }
    }

    proptest! {
        /// Every tier decodes the same steps and transforms them to the
        /// same grid from any payload bytes: every power-of-two transform
        /// from 8 to 4096 points, prefixes of 0, 1, 7 and 16 samples,
        /// payloads of exactly `skip + n` samples (the engine's) and
        /// longer.
        #[test]
        fn unpack_tiers_agree_on_any_payload(
            log2n in 3usize..13,
            skip in (0usize..4).prop_map(|i| [0, 1, 7, 16][i]),
            extra in (0usize..2, 1usize..40).prop_map(|(longer, bytes)| longer * bytes),
            seed in any::<u64>(),
        ) {
            let n = 1 << log2n;
            let mut state = seed | 1;
            let payload: Vec<u8> = (0..(skip + n) * BYTES_PER_SAMPLE + extra)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 24) as u8
                })
                .collect();
            let steps = IqSteps::new(&payload, skip, n);
            let mut want = vec![Cf32::new(f32::NAN, 0.0); n];
            unpack_forward(&payload, skip, &FftPlan::with_tier(n, SimdTier::Scalar), &mut want);
            for tier in SimdTier::supported().skip(1) {
                for t in 0..n / 8 {
                    let decoded = step_bits(&steps, t, tier);
                    prop_assert!(decoded == step_bits(&steps, t, SimdTier::Scalar), "step {}", t);
                }
                let mut got = vec![Cf32::new(f32::NAN, 0.0); n];
                unpack_forward(&payload, skip, &FftPlan::with_tier(n, tier), &mut got);
                prop_assert!(bits(&got) == bits(&want), "n {} skip {} {:?}", n, skip, tier);
            }
        }
    }
}
