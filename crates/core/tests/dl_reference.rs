//! The downlink against an independent reference written from the
//! equations, not from the kernels: every coded bit of `dl_bits` mapped
//! through `map_symbol`, precoded in f64 with the ZF precoder read by
//! logical `(group, antenna, user)`, and inverse-transformed by a naive
//! f64 DFT over `SubcarrierMap`'s subcarrier → bin map. The engine's
//! `dl_time` must sit within the rounding bound of its f32 arithmetic on
//! every antenna and SIMD tier: a misplaced row, block or sample — which
//! tier-against-tier comparisons cannot see, since every tier would make
//! it alike — is an error of the order of the signal itself.
//!
//! The bound, per antenna, in the 2-norm over the symbol's samples, with
//! `eps = 2^-24` (f32's unit roundoff):
//!
//! * transform: `C_FFT * log2(N) * eps * ||t||`, where `t` is the
//!   reference's time-domain row: a radix-2 transform's error grows with
//!   its `log2(N)` stages, relative to its output (the `1/N` scale is one
//!   more rounding, folded into `C_FFT`);
//! * precoding: `(K + 1) * eps * ||a|| / sqrt(N)`, where `a[sc] = sum_u
//!   |p_u| |x_u[sc]|`: each precoded subcarrier is a K-term sum in f32,
//!   off by at most `K eps` of the sum of its terms' magnitudes (plus the
//!   rounding of the products), and the inverse transform with its `1/N`
//!   scales a frequency-domain error's 2-norm by `1/sqrt(N)`.

use agora_core::{EngineConfig, InlineProcessor, Kernels};
use agora_fft::SubcarrierMap;
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_math::{Cf32, SimdTier};
use agora_phy::frame::FrameSchedule;
use agora_phy::modulation::map_symbol;
use agora_phy::CellConfig;

/// The transform term's constant.
const C_FFT: f64 = 4.0;

/// f32's unit roundoff.
const EPS: f64 = f32::EPSILON as f64 / 2.0;

type C64 = (f64, f64);

fn mul(a: C64, b: C64) -> C64 {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn abs(a: C64) -> f64 {
    a.0.hypot(a.1)
}

fn wide(z: Cf32) -> C64 {
    (z.re as f64, z.im as f64)
}

/// One processed frame of `cell` (its schedule replaced by `schedule`):
/// the inline processor ran every task on the detected tier, so `pre` and
/// `dl_bits` hold what the downlink reads.
fn processed(mut cell: CellConfig, schedule: &str) -> InlineProcessor {
    cell.schedule = FrameSchedule::parse(schedule).expect("valid schedule");
    let mut rru = RruEmulator::new(cell.clone(), RruConfig { snr_db: 25.0, ..Default::default() });
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let (packets, _) = rru.generate_frame(0);
    let mut proc = InlineProcessor::new(cfg);
    proc.process_frame(0, &packets);
    proc
}

/// The reference time-domain rows of downlink `symbol`, per antenna, and
/// per antenna the bound's precoding term `||a|| / sqrt(N)` before its
/// `(K + 1) eps`.
fn reference(proc: &InlineProcessor, symbol: usize) -> (Vec<Vec<C64>>, Vec<f64>) {
    let (k, fb) = (proc.kernels(), proc.buffers(0));
    let (g, cell) = (k.geom, &k.cfg.cell);
    let (n, scheme) = (cell.fft_size, cell.modulation);
    let bps = scheme.bits_per_symbol();
    // SAFETY (every view below): the frame is processed and no task runs.
    let bit = |user: usize, j: usize| unsafe {
        let row = fb.dl_bits.view(Some((symbol, user)));
        (row[j / 8] >> (j % 8) & 1) as u32
    };
    // x[user][sc]: the coded bits of the user's row, `bps` at a time,
    // LSB-first, through the constellation's definition.
    let x: Vec<Vec<C64>> = (0..g.k)
        .map(|u| {
            (0..g.q)
                .map(|sc| {
                    let v = (0..bps).fold(0, |v, b| v | bit(u, sc * bps + b) << b);
                    wide(map_symbol(scheme, v))
                })
                .collect()
        })
        .collect();
    let pre = |group: usize, ant: usize, user: usize| unsafe {
        wide(fb.pre.view(Some(group))[ant * g.k + user])
    };
    let bins: Vec<usize> = SubcarrierMap::new(n, g.q).active_bins().collect();
    let twiddle: Vec<C64> = (0..n)
        .map(|i| {
            let phase = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            (phase.cos(), phase.sin())
        })
        .collect();
    let mut rows = Vec::new();
    let mut precode_terms = Vec::new();
    for ant in 0..g.m {
        let mut time = vec![(0.0, 0.0); g.samples];
        let mut a_sqr = 0.0;
        for (sc, &bin) in bins.iter().enumerate() {
            let group = sc / g.zf_group;
            let (mut y, mut a) = ((0.0, 0.0), 0.0);
            for (user, xu) in x.iter().enumerate() {
                let (p, xv) = (pre(group, ant, user), xu[sc]);
                let py = mul(p, xv);
                (y, a) = ((y.0 + py.0, y.1 + py.1), a + abs(p) * abs(xv));
            }
            a_sqr += a * a;
            // t[i] += y e^{2 pi j bin i / N} / N
            let mut at = 0;
            for z in time.iter_mut() {
                let w = mul(y, twiddle[at]);
                (z.0, z.1) = (z.0 + w.0 / n as f64, z.1 + w.1 / n as f64);
                at = (at + bin) & (n - 1);
            }
        }
        rows.push(time);
        precode_terms.push(a_sqr.sqrt() / (n as f64).sqrt());
    }
    (rows, precode_terms)
}

/// Every antenna's `dl_time` of every downlink symbol of `schedule`,
/// rewritten on each supported tier by the precode task and the IFFT
/// tasks at the default batch, within the bound of the reference.
fn check(cell: CellConfig, schedule: &str) {
    let proc = processed(cell, schedule);
    let (k, fb) = (proc.kernels(), proc.buffers(0));
    let (g, cell) = (k.geom, &k.cfg.cell);
    let log2n = cell.fft_size.trailing_zeros() as f64;
    let what = format!("{}x{} {:?}", g.m, g.k, cell.modulation);
    for symbol in cell.schedule.downlink_indices() {
        let (want, precode_terms) = reference(&proc, symbol);
        for tier in SimdTier::supported() {
            let pinned = Kernels::with_tier(k.cfg.clone(), tier);
            let mut s = pinned.scratch();
            // SAFETY: single-threaded; no view is alive across the fill.
            unsafe { fb.dl_time.fill(Cf32::new(f32::NAN, f32::NAN)) };
            pinned.precode_task(fb, &mut s, symbol, 0, g.q);
            let batch = pinned.cfg.batch.ifft;
            for base in (0..g.m).step_by(batch) {
                pinned.ifft_batch_task(fb, &mut s, symbol, base, batch.min(g.m - base));
            }
            let got = unsafe { fb.dl_time.view(Some(symbol)) };
            let (mut worst, mut worst_ant) = ((0.0, 1.0), 0);
            for (ant, (got, want)) in got.chunks_exact(g.samples).zip(&want).enumerate() {
                let (mut err, mut norm) = (0.0, 0.0);
                for (&z, &w) in got.iter().zip(want) {
                    let d = (z.re as f64 - w.0, z.im as f64 - w.1);
                    (err, norm) = (err + d.0 * d.0 + d.1 * d.1, norm + w.0 * w.0 + w.1 * w.1);
                }
                let (err, norm) = (err.sqrt(), norm.sqrt());
                let bound =
                    C_FFT * log2n * EPS * norm + (g.k + 1) as f64 * EPS * precode_terms[ant];
                assert!(
                    err <= bound,
                    "{what} symbol {symbol} {tier:?} antenna {ant}: error {err:.3e} over bound {bound:.3e}"
                );
                if err / bound > worst.0 / worst.1 {
                    (worst, worst_ant) = ((err, bound), ant);
                }
            }
            println!(
                "{what} symbol {symbol} {tier:?}: worst antenna {worst_ant}, error {:.3e}, bound {:.3e} ({:.2} of it)",
                worst.0,
                worst.1,
                worst.0 / worst.1
            );
        }
    }
}

/// The 8x2 test cell, at its QPSK and at 16-, 64- and 256-QAM, two
/// downlink symbols each.
#[test]
fn small_cell_downlink_matches_the_f64_reference() {
    use agora_phy::modulation::ModScheme::*;
    for scheme in [Qpsk, Qam16, Qam64, Qam256] {
        let mut cell = CellConfig::tiny_test(0);
        cell.modulation = scheme;
        check(cell, "PDD");
    }
}

/// One 64x16 downlink symbol of the benchmark's cell (64-QAM, 2048/1200).
#[test]
fn paper_cell_downlink_matches_the_f64_reference() {
    check(CellConfig::emulated_rru(64, 16, 0), "PD");
}
