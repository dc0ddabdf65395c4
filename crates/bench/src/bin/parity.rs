//! CI smoke: release-build parity checks, one table, one process.
//!
//! ```text
//! parity            # every check
//! parity fft sched  # a subset, by name
//! ```
//!
//! Every check is deterministic (fixed seeds) and fast; any violation
//! prints a `FAIL` line and the process exits 1 after the selected checks
//! have run. `scripts/ci.sh` runs the whole table after the test suite.
//!
//! | name | contract |
//! |---|---|
//! | `decoder` | f32 and i8 LDPC decoders each bit-exact across SIMD tiers; both planes land on the transmitted bits |
//! | `fft` | tier agreement; batched ≡ single transforms bit for bit; pre-reversed entry ≡ `execute` |
//! | `gemm` | `gemm` (GEMV at `n = 1`), the ZF Gram kernel and planned kernels on every vector tier bit-identical to scalar on every dispatch shape class |
//! | `zf` | Cholesky detector ≈ Jacobi-SVD pseudo-inverse, bit-identical across every tier; near-singular Gram rejected |
//! | `demod` | `Kernels` pinned to each narrower tier ≡ detected tier on the `csi`, `freq` (pilot and uplink FFTs), `inv_noise`, `llr`, `decoded`, `decode_ok`, `dl_freq` and `dl_time` planes, 8×2 and 64×16 |
//! | `bler` | through the real uplink chain at 0–30 dB, AWGN and 4-tap Rayleigh, 8×2 and 64×16: the engine's i8 plane decodes at least the blocks an f32 decoder does |
//! | `fronthaul` | batch ≡ single delivery on mem and UDP links; aggregation split and pool recycling |
//! | `deployment` | C=4 ledgers reconcile against the fault injector; deployment ≡ standalone engines; misroutes counted |
//! | `sched` | lanes ≡ inline; lane counters account for every message |

use agora_channel::FadingModel;
use agora_core::deploy::{Deployment, DeploymentConfig};
use agora_core::{Counter, Engine, EngineConfig, FrameResult, InlineProcessor, Kernels};
use agora_fft::{Direction, FftPlan};
use agora_fronthaul::packet::decode_ref;
use agora_fronthaul::{
    encode, FaultConfig, Fronthaul, LossModel, MemFronthaul, MultiCellGenerator, PacketBuf,
    PacketDir, PacketHeader, PacketPool, RruConfig, RruEmulator, UdpFronthaul,
};
use agora_ldpc::{
    quantize_llrs, BaseGraphId, DecodeConfig, DecodeConfigI8, Decoder, DecoderI8, Encoder,
    RateMatch, DEFAULT_LLR_SCALE,
};
use agora_math::simd::conj_transpose_scalar;
use agora_math::{
    pinv_into, pinv_svd, CMat, Cf32, CholScratch, Cholesky, Gemm, PinvMethod, PinvScratch, SimdTier,
};
use agora_phy::demod::Demapper;
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use agora_queue::TaskType;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const CHECKS: &[(&str, fn())] = &[
    ("decoder", decoder),
    ("fft", fft),
    ("gemm", gemm),
    ("zf", zf),
    ("demod", demod),
    ("bler", bler),
    ("fronthaul", fronthaul),
    ("deployment", deployment),
    ("sched", sched),
];

static FAILURES: AtomicUsize = AtomicUsize::new(0);

fn check(ok: bool, what: &str) {
    if ok {
        println!("OK   {what}");
    } else {
        println!("FAIL {what}");
        FAILURES.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| !CHECKS.iter().any(|(name, _)| name == n)) {
        let known: Vec<&str> = CHECKS.iter().map(|(name, _)| *name).collect();
        eprintln!("parity: unknown check `{bad}` (known: {})", known.join(" "));
        std::process::exit(2);
    }
    println!("parity smoke (detected tier: {:?})", SimdTier::detect());
    for (name, run) in CHECKS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            println!("== {name} ==");
            run();
        }
    }
    let failures = FAILURES.load(Ordering::Relaxed);
    if failures > 0 {
        println!("parity: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("parity: all checks passed");
}

// ---------------------------------------------------------------- helpers

/// Deterministic xorshift fill, components in `[-0.25, 0.75)`.
fn fill(seed: u64, buf: &mut [Cf32]) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.25
    };
    for v in buf.iter_mut() {
        *v = Cf32::new(next(), next());
    }
}

fn filled(seed: u64, len: usize) -> Vec<Cf32> {
    let mut v = vec![Cf32::ZERO; len];
    fill(seed, &mut v);
    v
}

fn channel(m: usize, k: usize, seed: u64) -> CMat {
    let mut h = CMat::zeros(m, k);
    fill(seed, h.as_mut_slice());
    h
}

fn bits(v: &[Cf32]) -> Vec<(u32, u32)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// Everything except timing milestones (wall-clock, inherently run
/// dependent) must match bit for bit.
fn frame_results_equal(a: &FrameResult, b: &FrameResult) -> bool {
    a.frame == b.frame
        && a.dropped == b.dropped
        && a.lost_packets == b.lost_packets
        && a.decode_ok == b.decode_ok
        && a.decoded == b.decoded
}

fn all_frames_equal(a: &[FrameResult], b: &[FrameResult]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| frame_results_equal(x, y))
}

/// `frames` frames of one emulated cell: its packets and noise power.
fn cell_packets(cell: &CellConfig, snr_db: f32, seed: u64, frames: u32) -> (Vec<Bytes>, f32) {
    let mut rru = RruEmulator::new(cell.clone(), RruConfig { snr_db, seed, ..Default::default() });
    let packets = (0..frames).flat_map(|f| rru.generate_frame(f).0).collect();
    (packets, rru.noise_power())
}

fn frame_of(packets: &[Bytes], frame: u32) -> Vec<Bytes> {
    let of = |p: &&Bytes| decode_ref(p).expect("valid packets").0.frame == frame;
    packets.iter().filter(of).cloned().collect()
}

const CELLS: usize = 4;

/// Four tiny cells with distinct seeds and cell ids, plus their noise.
fn rrus(seed_base: u64) -> (CellConfig, Vec<RruEmulator>, Vec<f32>) {
    let cell = CellConfig::tiny_test(2);
    let rrus: Vec<RruEmulator> = (0..CELLS)
        .map(|c| {
            let seed = seed_base + c as u64;
            let rc = RruConfig { snr_db: 30.0, seed, cell_id: c as u8, ..Default::default() };
            RruEmulator::new(cell.clone(), rc)
        })
        .collect();
    let noise = rrus.iter().map(|r| r.noise_power()).collect();
    (cell, rrus, noise)
}

/// A link sized for the whole run (with duplication headroom) so the
/// ring never drops and the ledgers reconcile exactly.
fn link_for(cell: &CellConfig, frames: u32) -> (MemFronthaul, MemFronthaul) {
    let per_frame = cell.symbols_per_frame() * cell.num_antennas;
    MemFronthaul::pair((2 * CELLS * per_frame * frames as usize).next_power_of_two())
}

fn deployment_for(cell: &CellConfig, noise: &[f32], deadline: Option<u64>) -> Deployment {
    let cells = noise
        .iter()
        .map(|&n| {
            let mut cfg = EngineConfig::new(cell.clone(), 1);
            cfg.noise_power = n;
            cfg.frame_deadline_ns = deadline;
            cfg
        })
        .collect();
    Deployment::new(DeploymentConfig::new(cells, CELLS))
}

// ---------------------------------------------------------------- decoder

fn awgn_llrs(tx: &[u8], snr_db: f32, rng: &mut StdRng) -> Vec<f32> {
    let sigma2 = 10.0f32.powf(-snr_db / 10.0);
    let sigma = sigma2.sqrt();
    tx.iter()
        .map(|&b| {
            let x = if b == 0 { 1.0f32 } else { -1.0 };
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let n = ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
            2.0 * (x + sigma * n) / sigma2
        })
        .collect()
}

/// The (base graph, Z) points the benches sweep, plus shapes that are not
/// a whole number of vectors in either plane (padded lanes). Per case: one
/// noiseless word, then seven at operating SNR where both planes must
/// still land on the transmitted bits.
fn decoder() {
    const CASES: &[(BaseGraphId, usize)] = &[
        (BaseGraphId::Bg1, 384),
        (BaseGraphId::Bg1, 104),
        (BaseGraphId::Bg1, 64),
        (BaseGraphId::Bg2, 56),
        (BaseGraphId::Bg2, 36),
        (BaseGraphId::Bg1, 30),
    ];
    for &(bg, z) in CASES {
        let enc = Encoder::new(bg, z);
        let rm = RateMatch::for_rate(bg, z, 1.0 / 3.0);
        let mut dec_f32 = Decoder::new(bg, z);
        let mut dec_f32_scalar = Decoder::with_tier(bg, z, SimdTier::Scalar);
        let mut dec_i8 = DecoderI8::new(bg, z);
        let mut dec_i8_scalar = DecoderI8::with_tier(bg, z, SimdTier::Scalar);
        // Every vector tier below the detected one, which `dec_i8` runs.
        let mut dec_i8_narrower: Vec<DecoderI8> = SimdTier::supported()
            .filter(|&t| t != SimdTier::Scalar && t != dec_i8.tier())
            .map(|t| DecoderI8::with_tier(bg, z, t))
            .collect();
        let mut rng = StdRng::seed_from_u64(0xA60A + z as u64);
        let mut full_f32 = vec![0.0f32; dec_f32.codeword_len()];
        let mut full_i8 = vec![0i8; dec_i8.codeword_len()];
        let (mut f32_tiers_agree, mut tiers_agree) = (true, true);
        let (mut f32_lands, mut i8_lands) = (true, true);
        for word in 0..8 {
            let info: Vec<u8> = (0..enc.info_len()).map(|_| rng.gen::<bool>() as u8).collect();
            let tx = rm.extract(&enc.encode(&info));
            let llrs = if word == 0 {
                tx.iter().map(|&b| if b == 0 { 12.0f32 } else { -12.0 }).collect()
            } else {
                awgn_llrs(&tx, 5.0, &mut rng)
            };
            rm.fill_llrs_into(&llrs, &mut full_f32);
            let mut tx_i8 = vec![0i8; llrs.len()];
            quantize_llrs(&llrs, &mut tx_i8, DEFAULT_LLR_SCALE);
            rm.fill_llrs_into(&tx_i8, &mut full_i8);

            let active_rows = Some(rm.active_rows());
            let cfg_f32 = DecodeConfig { max_iters: 8, active_rows, ..Default::default() };
            let cfg_i8 = DecodeConfigI8 { max_iters: 8, active_rows, ..Default::default() };
            let rf = dec_f32.decode(&full_f32, &cfg_f32);
            let rfs = dec_f32_scalar.decode(&full_f32, &cfg_f32);
            f32_tiers_agree &= rf.info_bits == rfs.info_bits
                && rf.success == rfs.success
                && rf.iterations == rfs.iterations;
            let ri = dec_i8.decode(&full_i8, &cfg_i8);
            let rs = dec_i8_scalar.decode(&full_i8, &cfg_i8);
            let narrower: Vec<_> =
                dec_i8_narrower.iter_mut().map(|d| d.decode(&full_i8, &cfg_i8)).collect();
            for r in [&ri].into_iter().chain(&narrower) {
                tiers_agree &= r.info_bits == rs.info_bits
                    && r.success == rs.success
                    && r.iterations == rs.iterations;
            }
            f32_lands &= rf.success && rf.info_bits == info;
            i8_lands &= ri.success && ri.info_bits == info;
        }
        check(
            f32_tiers_agree,
            &format!("{bg:?} Z={z}: f32 decoder bit-exact, detected vs scalar tier"),
        );
        check(tiers_agree, &format!("{bg:?} Z={z}: i8 decoder bit-exact, every tier vs scalar"));
        check(f32_lands, &format!("{bg:?} Z={z}: f32 plane decodes clean + 5 dB words"));
        check(i8_lands, &format!("{bg:?} Z={z}: i8 plane decodes clean + 5 dB words"));
    }
}

// -------------------------------------------------------------------- fft

fn fft() {
    const BATCH: usize = 4;
    for n in [64usize, 256, 2048] {
        let fast = FftPlan::new(n);
        let scalar = FftPlan::with_tier(n, SimdTier::Scalar);
        // Tolerance grows with accumulation depth, as in the proptests.
        let tol = 1e-4 * (n as f32).sqrt();
        let input = filled(0xF0F7 + n as u64, BATCH * n);
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut a = input[..n].to_vec();
            let mut b = input[..n].to_vec();
            fast.execute(&mut a, dir);
            scalar.execute(&mut b, dir);
            let err =
                a.iter().zip(&b).map(|(x, y)| (*x - *y).norm_sqr().sqrt()).fold(0.0, f32::max);
            check(err <= tol, &format!("n={n} {dir:?}: tiers agree ({err:e} <= {tol:e})"));

            let mut batch = input.clone();
            fast.execute_batch(&mut batch, dir);
            let mut singles = input.clone();
            for chunk in singles.chunks_exact_mut(n) {
                fast.execute(chunk, dir);
            }
            check(
                bits(&batch) == bits(&singles),
                &format!("n={n} {dir:?}: batch x{BATCH} bit-identical to singles"),
            );

            // Manual bit-reversal + pre-reversed entry vs fused execute:
            // same butterflies, same data.
            let mut pre: Vec<Cf32> = fast.bitrev().iter().map(|&j| input[j as usize]).collect();
            fast.execute_prereversed(&mut pre, dir);
            check(bits(&pre) == bits(&a), &format!("n={n} {dir:?}: prereversed path == execute"));

            // The vector tiers share their bits: each wider body runs the
            // AVX2 body's operations.
            let mut avx2 = input.clone();
            FftPlan::with_tier(n, SimdTier::Avx2).execute_batch(&mut avx2, dir);
            for tier in SimdTier::supported().filter(|&t| t > SimdTier::Avx2) {
                let mut wide = input.clone();
                FftPlan::with_tier(n, tier).execute_batch(&mut wide, dir);
                check(bits(&wide) == bits(&avx2), &format!("n={n} {dir:?}: {tier:?} == Avx2"));
            }
        }
    }
}

// ------------------------------------------------------------------- gemm

/// Every tier this CPU runs above scalar.
fn vector_tiers() -> impl Iterator<Item = SimdTier> {
    SimdTier::supported().filter(|&t| t > SimdTier::Scalar)
}

fn gemm() {
    for tier in vector_tiers() {
        gemm_on(tier);
    }
}

/// [`gemm`]'s checks of one vector tier against scalar.
fn gemm_on(tier: SimdTier) {
    // Engine shapes plus odd sizes that exercise every tail path (m%4 and
    // m%16 row remainders, n%4 and n%8 masked columns, two zmm column
    // blocks, k%4 packed tails, k = 1, n==1 gemv delegation).
    let shapes: &[(usize, usize, usize)] = &[
        (16, 64, 8), // paper equalize (K, M, B)
        (64, 16, 8), // paper precode (M, K, B)
        (8, 32, 8),
        (4, 16, 8),
        (16, 64, 1), // gemv delegation
        (5, 7, 3),   // everything-tail
        (3, 9, 1),
        (13, 13, 13),
        (1, 1, 1),
        (2, 33, 6),
        (17, 4, 5),
        (33, 65, 9),
        (2, 8, 8),   // 8x2 equalize
        (8, 2, 8),   // 8x2 precode
        (21, 1, 17), // k = 1, a 16-row tile + 4 + 1, two column blocks
        (19, 6, 24), // three full column blocks
    ];
    for &(m, k, n) in shapes {
        let a = filled((m * 131 + k * 17 + n) as u64, m * k);
        let b = filled((m * 7 + k * 311 + n * 5) as u64, k * n);
        let mut c_scal = vec![Cf32::ZERO; m * n];
        // Stale outputs must be overwritten.
        let mut c_simd = vec![Cf32::ONE; m * n];
        let mut c_plan = vec![Cf32::ONE; m * n];
        agora_math::gemm_with_tier(m, k, n, &a, &b, &mut c_scal, SimdTier::Scalar);
        agora_math::gemm_with_tier(m, k, n, &a, &b, &mut c_simd, tier);
        let plan = Gemm::plan_with_tier(m, k, n, tier);
        plan.run(&a, &b, &mut c_plan);
        check(
            bits(&c_scal) == bits(&c_simd),
            &format!("gemm ({m},{k},{n}): {tier:?} ≡ scalar bit for bit"),
        );
        check(
            bits(&c_plan) == bits(&c_scal),
            &format!("plan ({m},{k},{n}) kernel {:?} == scalar free function", plan.kernel()),
        );
    }
    // GEMV (a column-vector GEMM) over shapes hitting the packed-panel TK
    // tiling and tails.
    for (m, k) in
        [(16usize, 64usize), (64, 16), (4, 4), (5, 67), (1, 1), (3, 129), (31, 70), (8, 256)]
    {
        let a = filled((m * 997 + k) as u64, m * k);
        let x = filled((k * 13 + m) as u64, k);
        let mut y_scal = vec![Cf32::ZERO; m];
        let mut y_simd = vec![Cf32::ZERO; m];
        agora_math::gemm_with_tier(m, k, 1, &a, &x, &mut y_scal, SimdTier::Scalar);
        agora_math::gemm_with_tier(m, k, 1, &a, &x, &mut y_simd, tier);
        check(
            bits(&y_scal) == bits(&y_simd),
            &format!("gemv ({m},{k}): {tier:?} ≡ scalar bit for bit"),
        );
    }
    // The ZF Gram kernel (A^H A from A^H and A) over ZF shapes plus tails.
    for (rows, cols) in [(64usize, 16usize), (32, 8), (16, 4), (7, 5), (64, 15), (9, 9), (1, 3)] {
        let a = filled((rows * 53 + cols) as u64, rows * cols);
        let mut ah = vec![Cf32::ZERO; cols * rows];
        conj_transpose_scalar(&a, rows, cols, &mut ah);
        let mut g_scal = vec![Cf32::ZERO; cols * cols];
        let mut g_simd = vec![Cf32::ZERO; cols * cols];
        agora_math::gram_accumulate_with_tier(rows, cols, &ah, &a, &mut g_scal, SimdTier::Scalar);
        agora_math::gram_accumulate_with_tier(rows, cols, &ah, &a, &mut g_simd, tier);
        check(
            bits(&g_scal) == bits(&g_simd),
            &format!("gram ({rows},{cols}): {tier:?} ≡ scalar bit for bit"),
        );
    }
}

// --------------------------------------------------------------------- zf

/// `h` with user 1 nearly duplicated onto user 0: its Gram must fail the
/// Cholesky pivot test.
fn near_singular(mut h: CMat) -> CMat {
    for r in 0..h.shape().0 {
        let v = h[(r, 0)];
        h[(r, 1)] = v + Cf32::new(1e-6, -1e-6);
    }
    h
}

fn zf() {
    for tier in vector_tiers() {
        zf_on(tier);
    }
}

/// [`zf`]'s checks of one vector tier against scalar.
fn zf_on(tier: SimdTier) {
    for (m, k) in [(64usize, 16usize), (32, 8), (16, 4), (64, 15), (24, 7), (8, 1)] {
        let h = channel(m, k, (m * 131 + k) as u64);
        let mut ch = CMat::zeros(k, m);
        let mut ch_scalar = CMat::zeros(k, m);
        let mut s = PinvScratch::with_tier(m, k, tier);
        pinv_into(&h, PinvMethod::Cholesky, &mut s, &mut ch);
        let mut s_scalar = PinvScratch::with_tier(m, k, SimdTier::Scalar);
        pinv_into(&h, PinvMethod::Cholesky, &mut s_scalar, &mut ch_scalar);
        let diff = ch.max_abs_diff(&pinv_svd(&h, 1e-5));
        check(
            diff <= 1e-3,
            &format!("detector ({m},{k}): {tier:?} Cholesky vs Jacobi SVD {diff:.3e}"),
        );
        check(
            bits(ch.as_slice()) == bits(ch_scalar.as_slice()),
            &format!("detector ({m},{k}): Cholesky {tier:?} ≡ scalar bit for bit"),
        );
    }
    // Factor tier parity is bit-exact on odd sizes too.
    for k in [1usize, 3, 5, 7, 11, 15, 16] {
        let h = channel(4 * k.max(2), k, (k * 7919) as u64);
        let gram = h.hermitian().matmul(&h);
        let mut l_simd = CMat::zeros(k, k);
        let mut l_scal = CMat::zeros(k, k);
        let mut sc = CholScratch::new(k);
        let factored = Cholesky::factor_into(&gram, &mut l_simd, &mut sc, tier).is_ok()
            && Cholesky::factor_into(&gram, &mut l_scal, &mut sc, SimdTier::Scalar).is_ok();
        check(
            factored && bits(l_simd.as_slice()) == bits(l_scal.as_slice()),
            &format!("factor_into k={k}: {tier:?} ≡ scalar bit for bit"),
        );
    }
    // Nearly-duplicated user channels must be rejected by the pivot test
    // (the f32-aware singularity guard), not silently inverted.
    let bad = near_singular(channel(64, 16, 4242));
    let gram = bad.hermitian().matmul(&bad);
    let rejected =
        Cholesky::factor_into(&gram, &mut CMat::zeros(16, 16), &mut CholScratch::new(16), tier);
    check(rejected.is_err(), &format!("guard: {tier:?} rejects a near-duplicate user channel"));
}

// ------------------------------------------------------------------ demod

/// One pilot + uplink + downlink frame through the inline processor on
/// the detected tier; then kernels pinned to each narrower tier redo its
/// FFTs (pilot and uplink), ZF, demodulation, decoding, precoding and
/// every antenna's IFFT on the same slot. The IQ unpack, the demapper and its fused quantiser,
/// the noise scales, the decoder and the modulator's bit-pack must leave
/// the planes byte for byte.
fn demod() {
    for (mut cell, what) in
        [(CellConfig::tiny_test(1), "8x2"), (CellConfig::emulated_rru(64, 16, 1), "64x16")]
    {
        cell.schedule = FrameSchedule::parse("PUD").expect("valid schedule");
        let (pilot, uplink, downlink) = (0, 1, 2);
        let (packets, noise) = cell_packets(&cell, 25.0, 77, 1);
        let mut cfg = EngineConfig::new(cell, 1);
        cfg.noise_power = noise;
        let mut proc = InlineProcessor::new(cfg.clone());
        proc.process_frame(0, &packets);
        let (fb, g) = (proc.buffers(0), proc.kernels().geom);
        // SAFETY (here and below): single-threaded; every task has run,
        // and no view is alive across a `fill`.
        let planes = || unsafe {
            let cf32 =
                [&fb.csi, &fb.freq, &fb.dl_freq, &fb.dl_time].map(|plane| bits(plane.view(None)));
            let inv_noise: Vec<u32> = fb.inv_noise.view(None).iter().map(|x| x.to_bits()).collect();
            let bytes = [fb.decoded.view(None), fb.decode_ok.view(None)].map(<[u8]>::to_vec);
            (cf32, inv_noise, fb.llr.view(None).to_vec(), bytes)
        };
        let detected = planes();
        let filled = detected.0.iter().all(|plane| plane.iter().any(|&b| b != (0, 0)))
            && detected.1.iter().any(|&b| b != 0)
            && detected.2.iter().any(|&l| l != 0)
            && detected.3[1].contains(&1);
        check(filled, &format!("{what}: the detected tier filled the planes"));
        for tier in SimdTier::supported().filter(|&t| t < SimdTier::detect()) {
            unsafe {
                for plane in [&fb.csi, &fb.freq, &fb.dl_freq, &fb.dl_time] {
                    plane.fill(Cf32::ZERO);
                }
                fb.inv_noise.fill(0.0);
                fb.llr.fill(0);
                fb.decoded.fill(0);
                fb.decode_ok.fill(0);
            }
            let pinned = Kernels::with_tier(cfg.clone(), tier);
            let mut s = pinned.scratch();
            for symbol in [pilot, uplink] {
                (0..g.m).for_each(|ant| pinned.fft_task(fb, &mut s, symbol, ant));
            }
            (0..pinned.shape.zf_groups).for_each(|group| pinned.zf_task(fb, &mut s, group));
            pinned.demod_task(fb, &mut s, 0, uplink, 0, g.q);
            (0..g.k).for_each(|user| pinned.decode_task(fb, &mut s, uplink, user));
            pinned.precode_task(fb, &mut s, downlink, 0, g.q);
            (0..g.m).for_each(|ant| pinned.ifft_task(fb, &mut s, downlink, ant));
            let (cf32, inv_noise, llr, bytes) = planes();
            for (plane, same) in [
                ("csi", cf32[0] == detected.0[0]),
                ("freq", cf32[1] == detected.0[1]),
                ("inv_noise", inv_noise == detected.1),
                ("llr", llr == detected.2),
                ("decoded", bytes[0] == detected.3[0]),
                ("decode_ok", bytes[1] == detected.3[1]),
                ("dl_freq", cf32[2] == detected.0[2]),
                ("dl_time", cf32[3] == detected.0[3]),
            ] {
                check(same, &format!("{what}: {plane} plane, {tier:?} tier ≡ detected"));
            }
        }
    }
}

// ------------------------------------------------------------------- bler

/// Code blocks of one sweep point decoded to the transmitted bits.
struct Point {
    snr_db: u32,
    /// By the float decoder, on the demapper's LLRs.
    f32: usize,
    /// By the i8 decoder behind a fixed `DEFAULT_LLR_SCALE` quantiser.
    fixed: usize,
    /// By the engine.
    engine: usize,
}

/// Word lengths validated by block error rate across the whole operating
/// range, on the benchmark's two cell shapes, the benchmark's flat channel
/// and a 4-tap Rayleigh one: RRU → FFT → ZF → demapper → quantiser →
/// `DecoderI8`, as the engine runs it, against the float `Decoder` on the
/// same frames' float LLRs. At every point the engine decodes at least as
/// many blocks as the float decoder, and all of them wherever it does; a
/// per-block superset is not asked for, since marginal blocks at the
/// waterfall flip either way. The fixed ×4.0 column is the quantiser the
/// engine's i8 plane had first, whose saturation at high SNR the harness
/// must still see.
fn bler() {
    let shapes = [
        (CellConfig::tiny_test(13), "8x2", 20),
        (CellConfig::emulated_rru(64, 16, 13), "64x16", 2),
    ];
    let channels = [(FadingModel::Awgn, 0, "AWGN"), (FadingModel::Rayleigh, 4, "Rayleigh 4-tap")];
    // 0 to 30 dB in 2 dB steps, and the benchmark's 25 dB.
    let mut snrs: Vec<u32> = (0..=30).step_by(2).chain([25]).collect();
    snrs.sort_unstable();
    for (cell, shape, frames) in &shapes {
        for &(fading, taps, channel) in &channels {
            let what = format!("{shape} {channel}");
            // Two threads, every other point each: generating the frames
            // is most of the time.
            let mut points: Vec<Point> = std::thread::scope(|s| {
                let halves: Vec<_> = (0..2)
                    .map(|half| {
                        let snrs = &snrs;
                        s.spawn(move || {
                            let point = |&snr| bler_point(cell, *frames, fading, taps, snr);
                            snrs.iter().skip(half).step_by(2).map(point).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                halves.into_iter().flat_map(|h| h.join().expect("sweep thread")).collect()
            });
            points.sort_by_key(|p| p.snr_db);
            let blocks = *frames as usize * cell.schedule.uplink_indices().len() * cell.num_users;
            println!("     {what}, {blocks} blocks per point — dB: f32 / i8 at x4.0 / engine i8");
            let row: Vec<String> = points
                .iter()
                .map(|p| format!("{}: {}/{}/{}", p.snr_db, p.f32, p.fixed, p.engine))
                .collect();
            row.chunks(6).for_each(|r| println!("       {}", r.join("   ")));
            let short: Vec<u32> = points
                .iter()
                .filter(|p| p.engine < p.f32 || (p.f32 == blocks && p.engine < blocks))
                .map(|p| p.snr_db)
                .collect();
            check(
                short.is_empty(),
                &format!("{what}: engine i8 ≥ f32 at every SNR (short: {short:?})"),
            );
            if (*shape, channel) == ("64x16", "AWGN") {
                let seen = points.iter().any(|p| p.fixed < p.f32);
                check(seen, &format!("{what}: the fixed x4.0 quantiser's loss is visible"));
            }
        }
    }
}

/// One point of [`bler`]: `frames` frames of `cell` at `snr_db` through
/// the inline engine, then the float and fixed-scale oracles on the
/// demapper rows of the same frames, built from the planes the engine
/// left: its equalised samples' source (`freq`), detectors and noise
/// scales.
fn bler_point(
    cell: &CellConfig,
    frames: u32,
    fading: FadingModel,
    taps: usize,
    snr_db: u32,
) -> Point {
    let rc = RruConfig {
        snr_db: snr_db as f32,
        fading,
        delay_spread_taps: taps,
        seed: 26,
        ..Default::default()
    };
    let mut rru = RruEmulator::new(cell.clone(), rc);
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let mut proc = InlineProcessor::new(cfg);
    let g = proc.kernels().geom;
    let (ldpc, rm) = (&cell.ldpc, cell.ldpc.rate_match());
    let row_llrs = g.block * cell.modulation.bits_per_symbol();
    let eq = Gemm::plan(g.k, g.m, g.block);
    let demapper = Demapper::new(cell.modulation, SimdTier::detect());
    let (mut dec_f32, mut dec_i8) =
        (Decoder::new(ldpc.base_graph, ldpc.z), DecoderI8::new(ldpc.base_graph, ldpc.z));
    let active_rows = Some(rm.active_rows());
    let cfg_f32 = DecodeConfig { max_iters: ldpc.max_iters, active_rows, ..Default::default() };
    let cfg_i8 = DecodeConfigI8 { max_iters: ldpc.max_iters, active_rows, ..Default::default() };
    let mut user_block = vec![Cf32::ZERO; g.k * g.block];
    let mut llr = vec![0.0f32; g.k * g.cap_bits];
    let mut q = vec![0i8; rm.tx_len()];
    let (mut full_f32, mut full_i8) = (vec![0.0; rm.codeword_len()], vec![0; rm.codeword_len()]);
    let mut point = Point { snr_db, f32: 0, fixed: 0, engine: 0 };
    for frame in 0..frames {
        let (packets, truth) = rru.generate_frame(frame);
        let out = proc.process_frame(frame, &packets);
        let fb = proc.buffers(frame);
        for symbol in cell.schedule.uplink_indices() {
            // SAFETY (here and below): single-threaded; the frame is done.
            let freq = unsafe { fb.freq.view(Some(symbol)) };
            for blk in 0..g.q / g.block {
                let group = blk * g.block / g.zf_group;
                let det = unsafe { fb.det.view(Some(group)) };
                let inv_noise = unsafe { fb.inv_noise.view(Some(group)) };
                eq.run(det, &freq[g.block_cols(blk)], &mut user_block);
                for (user, row) in user_block.chunks_exact(g.block).enumerate() {
                    let at = user * g.cap_bits + blk * row_llrs;
                    demapper.demap(row, inv_noise[user], &mut llr[at..at + row_llrs]);
                }
            }
            for user in 0..g.k {
                let sent = &truth.info_bits[symbol][user];
                let llr = &llr[user * g.cap_bits..][..rm.tx_len()];
                rm.fill_llrs_into(llr, &mut full_f32);
                let r = dec_f32.decode(&full_f32, &cfg_f32);
                point.f32 += (r.success && r.info_bits == *sent) as usize;
                quantize_llrs(llr, &mut q, DEFAULT_LLR_SCALE);
                rm.fill_llrs_into(&q, &mut full_i8);
                let r = dec_i8.decode(&full_i8, &cfg_i8);
                point.fixed += (r.success && r.info_bits == *sent) as usize;
                point.engine +=
                    (out.decode_ok[symbol][user] && out.decoded[symbol][user] == *sent) as usize;
            }
        }
    }
    point
}

// -------------------------------------------------------------- fronthaul

fn wire_packets(n: usize) -> Vec<PacketBuf> {
    (0..n)
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
        .collect()
}

fn send_all(fh: &impl Fronthaul, pkts: &[PacketBuf]) {
    let mut outgoing: VecDeque<PacketBuf> = pkts.iter().cloned().collect();
    let mut spins = 0u32;
    while !outgoing.is_empty() {
        if fh.send_batch(&mut outgoing) == 0 {
            spins += 1;
            assert!(spins < 1_000_000, "send stalled");
            std::thread::yield_now();
        }
    }
}

fn recv_all(fh: &impl Fronthaul, n: usize) -> Vec<PacketBuf> {
    let mut got = Vec::with_capacity(n);
    for _ in 0..1_000_000 {
        let want = n - got.len();
        fh.recv_batch(&mut got, want);
        if got.len() == n {
            break;
        }
        std::thread::yield_now();
    }
    got
}

fn bytes_equal(reference: &[PacketBuf], got: &[PacketBuf]) -> bool {
    reference.len() == got.len() && reference.iter().zip(got).all(|(a, b)| a[..] == b[..])
}

fn udp_pair() -> (UdpFronthaul, UdpFronthaul) {
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut tx = UdpFronthaul::new(any, any).expect("bind tx");
    let rx = UdpFronthaul::new(any, tx.local_addr().unwrap()).expect("bind rx");
    tx.set_peer(rx.local_addr().unwrap());
    (tx, rx)
}

fn fronthaul() {
    let reference = wire_packets(48);

    // In-memory link: batched calls vs single calls.
    let (tx, rx) = MemFronthaul::pair(64);
    send_all(&tx, &reference);
    let batched = recv_all(&rx, reference.len());
    for p in &reference {
        tx.send(p.clone()).expect("mem link sized for the burst");
    }
    let single: Vec<PacketBuf> = (0..reference.len()).map(|_| rx.recv().unwrap()).collect();
    check(bytes_equal(&reference, &batched), "mem batch == reference");
    check(bytes_equal(&batched, &single), "mem batch == mem single");

    // Batched UDP loopback (mmsg or the portable fallback).
    let (tx, rx) = udp_pair();
    send_all(&tx, &reference);
    let got = recv_all(&rx, reference.len());
    check(bytes_equal(&reference, &got), "udp batch delivers identical bytes in order");
    check(
        tx.link_errors() == (0, 0) && rx.link_errors() == (0, 0),
        "udp batch round trip has zero link errors",
    );
    println!(
        "     (batched syscalls {})",
        if tx.batched_syscalls_active() { "active" } else { "unavailable; portable loop" }
    );

    // Aggregated jumbo datagrams into pooled slots, then recycling.
    let pool = PacketPool::new(64, 2048);
    let (tx, rx) = udp_pair();
    let tx = tx.with_aggregation(16);
    let rx = rx.with_aggregation(16).with_pool(pool.clone());
    send_all(&tx, &reference);
    let got = recv_all(&rx, reference.len());
    check(bytes_equal(&reference, &got), "aggregated+pooled split is byte-identical");
    check(got.iter().all(|p| p.is_pooled()), "aggregated receives land in pool slots");
    drop(got);
    drop(rx);
    check(pool.available() == pool.capacity(), "every pool slot returned after packet drop");

    // Plain sender into an aggregated receiver.
    let (tx, rx) = udp_pair();
    let rx = rx.with_aggregation(16);
    tx.send(reference[0].clone()).expect("loopback send");
    let got = recv_all(&rx, 1);
    check(bytes_equal(&reference[..1], &got), "plain datagram interoperates with aggregation");
}

// ------------------------------------------------------------- deployment

fn deployment() {
    ledger_reconciliation();
    bit_identical_vs_standalone();
    misroute_counting();
}

/// C=4 over one faulty link: per-cell loss/dup/frame ledgers reconcile
/// exactly against the injector's counters.
fn ledger_reconciliation() {
    const FRAMES: u32 = 4;
    let (cell, rrus, noise) = rrus(1000);
    let mut generator = MultiCellGenerator::new(rrus).with_faults(FaultConfig {
        loss: LossModel::Iid { p: 0.03 },
        reorder_prob: 0.05,
        max_delay: 8,
        duplicate_prob: 0.03,
        seed: 11,
    });
    let (tx, rx) = link_for(&cell, FRAMES);
    let truths = generator.run(&tx, FRAMES);
    let fs = generator.stats().clone();
    check(fs.lost > 0, "ledger: 3% loss fired over the run");
    check(fs.duplicated > 0, "ledger: 3% duplication fired over the run");

    let deployment = deployment_for(&cell, &noise, Some(700_000_000));
    let done = AtomicBool::new(true);
    let results = deployment.process_fronthaul(&rx, FRAMES, &done);
    check(results.iter().all(|r| r.len() == FRAMES as usize), "ledger: every cell emits 4 frames");

    let stats = deployment.stats();
    let demux = deployment.demux_stats();
    check(demux.misrouted() == 0, "ledger: no misrouted packets in a 4-cell stream");
    check(
        stats.link().rx_batch_packets() == fs.delivered,
        "ledger: every surviving packet drained from the shared link",
    );
    for c in 0..CELLS {
        let cid = c as u8;
        let s = stats.cell(c);
        check(
            demux.routed(c) == fs.per_cell_delivered.get(&cid).copied().unwrap_or(0),
            &format!("ledger: cell {c} demux count matches the delivery ledger"),
        );
        check(
            s.get(Counter::PacketsLost) == fs.per_cell_lost.get(&cid).copied().unwrap_or(0),
            &format!("ledger: cell {c} loss reconciles"),
        );
        check(
            s.get(Counter::PacketsDuplicate) + s.get(Counter::PacketsLate)
                == fs.per_cell_duplicated.get(&cid).copied().unwrap_or(0),
            &format!("ledger: cell {c} dup+late equals injected duplicates"),
        );
        for r in &results[c] {
            let lost_here = fs.per_cell_frame_lost.get(&(cid, r.frame)).copied().unwrap_or(0);
            check(
                r.dropped == (lost_here > 0),
                &format!("ledger: cell {c} frame {} drop status matches frame loss", r.frame),
            );
            if !r.dropped {
                let gt = &truths[c][r.frame as usize];
                let ok = cell.schedule.uplink_indices().into_iter().all(|sym| {
                    (0..cell.num_users)
                        .all(|u| r.decode_ok[sym][u] && r.decoded[sym][u] == gt.info_bits[sym][u])
                });
                check(ok, &format!("ledger: cell {c} frame {} decodes ground truth", r.frame));
            }
        }
    }
    let roll = stats.rollup();
    check(
        roll.get(Counter::PacketsLost) == fs.lost,
        "ledger: rolled-up loss equals total injected loss",
    );
    check(
        roll.get(Counter::FramesCompleted) + roll.get(Counter::FramesDropped)
            == (CELLS as u64) * FRAMES as u64,
        "ledger: rollup accounts for every frame",
    );
}

/// Loss-free faults (dup + reorder): deployment results are
/// bit-identical to per-cell standalone engines fed the demuxed stream.
fn bit_identical_vs_standalone() {
    const FRAMES: u32 = 4;
    let (cell, rrus, noise) = rrus(2000);
    let mut generator = MultiCellGenerator::new(rrus).with_faults(FaultConfig {
        loss: LossModel::None,
        reorder_prob: 0.08,
        max_delay: 8,
        duplicate_prob: 0.05,
        seed: 23,
    });
    let (tx, rx) = link_for(&cell, FRAMES);
    let _truths = generator.run(&tx, FRAMES);

    // Capture the exact delivered stream, then replay it to the
    // deployment over a fresh link and to per-cell standalone engines.
    let mut stream: Vec<Bytes> = Vec::new();
    let mut batch = Vec::new();
    while rx.recv_batch(&mut batch, 64) > 0 {
        stream.extend(batch.drain(..).map(PacketBuf::into_bytes));
    }
    check(stream.len() as u64 == generator.stats().delivered, "parity: captured whole stream");

    let rx2 = MemFronthaul::preloaded(&stream);
    let deployment = deployment_for(&cell, &noise, None);
    let done = AtomicBool::new(true);
    let dep_results = deployment.process_fronthaul(&rx2, FRAMES, &done);

    for c in 0..CELLS {
        let of_cell = |p: &&Bytes| decode_ref(p).expect("valid packets").0.cell as usize == c;
        let mine: Vec<Bytes> = stream.iter().filter(of_cell).cloned().collect();
        let mut cfg = EngineConfig::new(cell.clone(), 2);
        cfg.noise_power = noise[c];
        let engine = Engine::new(cfg);
        let solo = engine.process_fronthaul(&MemFronthaul::preloaded(&mine), FRAMES, &done);
        check(
            all_frames_equal(&solo, &dep_results[c]),
            &format!("parity: cell {c} frames bit-identical to a standalone engine"),
        );
        // The duplicate/late split depends on arrival timing, but the
        // sum is the injected duplicate count either way.
        let solo_dups = engine.stats().get(Counter::PacketsDuplicate)
            + engine.stats().get(Counter::PacketsLate);
        let dep = deployment.stats().cell(c);
        check(
            solo_dups == dep.get(Counter::PacketsDuplicate) + dep.get(Counter::PacketsLate),
            &format!("parity: cell {c} duplicate ledger matches"),
        );
    }
}

/// Packets naming an undeployed cell are counted and dropped.
fn misroute_counting() {
    const FRAMES: u32 = 4;
    let (cell, rrus, noise) = rrus(3000);
    let mut rogue = RruEmulator::new(
        cell.clone(),
        RruConfig { snr_db: 30.0, seed: 77, cell_id: 7, ..Default::default() },
    );
    let (tx, rx) = link_for(&cell, FRAMES);
    let (rogue_pkts, _) = rogue.generate_frame(0);
    let rogue_count = rogue_pkts.len() as u64;
    for p in rogue_pkts {
        tx.send(PacketBuf::Heap(p)).unwrap();
    }
    let mut generator = MultiCellGenerator::new(rrus);
    let _ = generator.run(&tx, FRAMES);

    let deployment = deployment_for(&cell, &noise, None);
    let done = AtomicBool::new(true);
    let results = deployment.process_fronthaul(&rx, FRAMES, &done);
    check(
        results.iter().all(|r| r.iter().all(|f| !f.dropped)),
        "misroute: all real cells complete despite the rogue stream",
    );
    check(
        deployment.stats().link().packets_misrouted() == rogue_count,
        "misroute: every rogue packet counted",
    );
    check(deployment.demux_stats().misrouted() == rogue_count, "misroute: demux counter agrees");
    check(
        (0..CELLS).all(|c| deployment.stats().cell(c).get(Counter::RxErrors) == 0),
        "misroute: rogue packets never reach a cell's intake",
    );
}

// ------------------------------------------------------------------ sched

/// The threaded engine (per-worker lanes, stealing) == inline, plus the
/// lane counters behave as documented. The overflow path through the
/// shared queues has its own deterministic test
/// (`lane_overflow_falls_back_to_shared_queues`).
fn sched() {
    const FRAMES: u32 = 3;
    let cell = CellConfig::tiny_test(2);
    let (packets, noise) = cell_packets(&cell, 28.0, 3, FRAMES);
    let mut cfg = EngineConfig::new(cell, 2);
    cfg.noise_power = noise;

    let lanes = Engine::new(cfg.clone());
    let link = MemFronthaul::preloaded(&packets);
    let with_lanes = lanes.process_fronthaul(&link, FRAMES, &AtomicBool::new(true));
    check(with_lanes.len() == FRAMES as usize, "lanes run emits every frame");
    let messages: u64 = TaskType::COMPUTE.iter().map(|&t| lanes.stats().messages(t)).sum();
    check(
        lanes.stats().lane_pushes() + lanes.stats().lane_overflows() == messages,
        "lane counters account for every dispatched message",
    );

    let mut inline = InlineProcessor::new(cfg);
    for f in 0..FRAMES {
        let reference = inline.process_frame(f, &frame_of(&packets, f));
        let t = with_lanes.iter().find(|r| r.frame == f).unwrap();
        check(
            t.decoded == reference.decoded && t.decode_ok == reference.decode_ok,
            &format!("frame {f} bit-identical to inline"),
        );
    }
}
