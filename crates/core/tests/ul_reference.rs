//! The uplink against a reference written from the equations, not from
//! the kernels: the received samples (`iq::unpack_sample`, the wire
//! format) through an f64 radix-2 DFT; LS channel estimates at the pilot
//! subcarrier each ZF group reads (`PilotPlan::owner`); the detector `(H^H
//! H)^-1 H^H` through f64 normal equations; the equalised symbols; and
//! exhaustive max-log LLRs over `constellation`, in the engine's
//! quantisation steps. Planes are read by logical coordinates through
//! index formulas of this file — `freq` `[block][antenna][block sc]`,
//! `csi` `[group][antenna][user]`, `det` `[group][user][antenna]`,
//! `inv_noise` `[group][user]`, `llr` `[symbol, user][sc][bit]` — so a
//! misplaced sample that every tier shares is an error of the order of the
//! signal. Decoded bits must equal what the RRU sent.
//!
//! Each stage starts from the plane the one before it left, so a bound
//! covers one stage's f32 arithmetic (`eps = 2^-24`): `freq`, per antenna,
//! `C_FFT log2(N) eps sqrt(N) ||x||`; `csi` the pilots' `freq` terms over
//! the smallest pilot magnitude plus `3 eps ||csi||`; `det`, per group,
//! `C_ZF (M + K) eps ||G|| ||G^-1|| ||W||` (Frobenius, `G = H^H H`);
//! `inv_noise` `(M + 5) eps` of the value; `llr`, in steps beyond the half
//! step of rounding, what the GEMM's error `e = (M + 3) eps sum |w| |y|`
//! moves either distance (`2 e sqrt(d) + e^2`), `4 eps (|y| + |s|max)^2` of
//! the demapper's rounding and `4 eps` of the value.

use agora_core::{EngineConfig, InlineProcessor, Kernels};
use agora_fft::SubcarrierMap;
use agora_fronthaul::packet::decode_ref;
use agora_fronthaul::{RruConfig, RruEmulator};
use agora_math::{Cf32, Cf64, SimdTier};
use agora_phy::iq::unpack_sample;
use agora_phy::modulation::{constellation, ModScheme};
use agora_phy::{CellConfig, FrameSchedule, PilotPlan, PilotScheme};

/// The transform term's constant.
const C_FFT: f64 = 4.0;

/// The detector term's constant.
const C_ZF: f64 = 4.0;

/// f32's unit roundoff.
const EPS: f64 = f32::EPSILON as f64 / 2.0;

/// Quantisation steps of a nominal point's least reliable bit: the
/// engine's LLR `(d1 - d0) / noise` at the scale that maps `d_min^2 /
/// noise` to this many steps.
const NOMINAL_LLR_STEPS: f64 = 16.0;

/// `X[k] = sum_n x[n] e^{-2 pi i k n / N}` in place, radix 2.
fn dft(x: &mut [Cf64]) {
    let n = x.len();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - n.trailing_zeros());
        if i < j {
            x.swap(i, j);
        }
    }
    for half in (0..n.trailing_zeros()).map(|s| 1 << s) {
        for k in 0..half {
            let w = Cf64::cis(-std::f64::consts::PI * k as f64 / half as f64);
            for at in (k..n).step_by(2 * half) {
                let (a, b) = (x[at], x[at + half] * w);
                (x[at], x[at + half]) = (a + b, a - b);
            }
        }
    }
}

/// `a^-1` of a Hermitian positive-definite `k x k` matrix, Gauss-Jordan.
fn inverse(mut a: Vec<Cf64>, k: usize) -> Vec<Cf64> {
    let mut inv: Vec<Cf64> =
        (0..k * k).map(|i| Cf64::real((i / k == i % k) as u8 as f64)).collect();
    for p in 0..k {
        let r = a[p * k + p].inv();
        (0..k)
            .for_each(|c| (a[p * k + c], inv[p * k + c]) = (a[p * k + c] * r, inv[p * k + c] * r));
        for row in (0..k).filter(|&row| row != p) {
            let f = a[row * k + p];
            for c in 0..k {
                (a[row * k + c], inv[row * k + c]) =
                    (a[row * k + c] - f * a[p * k + c], inv[row * k + c] - f * inv[p * k + c]);
            }
        }
    }
    inv
}

fn norm(a: impl IntoIterator<Item = Cf64>) -> f64 {
    a.into_iter().map(Cf64::norm_sqr).sum::<f64>().sqrt()
}

/// Asserts `err <= bound`, and keeps in `worst` the pair with the largest
/// share of its bound.
fn within(worst: &mut (f64, f64), err: f64, bound: f64, what: impl Fn() -> String) {
    assert!(err <= bound, "{}: error {err:.3e} over bound {bound:.3e}", what());
    if err * worst.1 >= worst.0 * bound {
        *worst = (err, bound);
    }
}

/// One frame of `cell` through the inline processor, then, on every
/// supported tier, its pilot and uplink FFTs, ZF, demodulation and
/// decoding again, each plane held to the reference within its bound.
fn check(cell: CellConfig, snr_db: f32) {
    let mut rru = RruEmulator::new(cell.clone(), RruConfig { snr_db, ..Default::default() });
    let (packets, truth) = rru.generate_frame(0);
    let mut cfg = EngineConfig::new(cell.clone(), 1);
    cfg.noise_power = rru.noise_power();
    let mut proc = InlineProcessor::new(cfg.clone());
    proc.process_frame(0, &packets);
    let (fb, g) = (proc.buffers(0), proc.kernels().geom);
    let (n, b, scheme, groups) = (cell.fft_size, g.block, cell.modulation, cell.num_zf_groups());
    let what = format!("{}x{} {scheme:?} {:?}", g.m, g.k, cell.pilot_scheme);

    // x[symbol][antenna]: the band's reference spectrum and its FFT term.
    let bins: Vec<usize> = SubcarrierMap::new(n, g.q).active_bins().collect();
    let mut x = vec![vec![(Vec::new(), 0.0); g.m]; g.symbols];
    for p in &packets {
        let (h, payload) = decode_ref(p).expect("generated packets decode");
        let samples = payload.chunks_exact(3).map(|s| unpack_sample(s.try_into().unwrap()));
        let mut t: Vec<Cf64> = samples.skip(g.samples - n).map(Cf32::to_f64).collect();
        let bound = C_FFT * n.ilog2() as f64 * EPS * norm(t.clone()) * (n as f64).sqrt();
        dft(&mut t);
        x[h.symbol as usize][h.antenna as usize] =
            (bins.iter().map(|&bin| t[bin]).collect(), bound);
    }
    // Per (group, user): the pilot symbol, subcarrier and reference its
    // estimate is taken from.
    let plan = PilotPlan::new(cell.pilot_scheme, g.k, g.q);
    let pilots = cell.schedule.pilot_indices();
    let sources: Vec<(usize, usize, Cf64)> = (0..groups * g.k)
        .map(|i| {
            let (first, user) = (i / g.k * g.zf_group, i % g.k);
            let sc = match cell.pilot_scheme {
                PilotScheme::FrequencyOrthogonal => first / g.k * g.k + user,
                PilotScheme::TimeOrthogonal => first,
            };
            let (ordinal, p) = (0..pilots.len())
                .find_map(|o| plan.owner(o, sc).filter(|o| o.0 == user).map(|(_, p)| (o, p)))
                .expect("every user owns a pilot");
            (pilots[ordinal], sc, p.to_f64())
        })
        .collect();
    let min_pilot = sources.iter().map(|s| s.2.abs()).fold(f64::INFINITY, f64::min);
    let points: Vec<Cf64> = constellation(scheme).into_iter().map(Cf32::to_f64).collect();
    let s_max = points.iter().map(|s| s.abs()).fold(0.0, f64::max);
    let steps = NOMINAL_LLR_STEPS / (4.0 * (scheme.scale() as f64).powi(2));
    let (bps, uplink) = (scheme.bits_per_symbol(), cell.schedule.uplink_indices());

    for tier in SimdTier::supported() {
        let pinned = Kernels::with_tier(cfg.clone(), tier);
        let mut s = pinned.scratch();
        // SAFETY (here and below): single-threaded; no view is alive
        // across a fill, and every task has run before its plane is read.
        unsafe {
            [&fb.csi, &fb.freq, &fb.det].iter().for_each(|p| p.fill(Cf32::new(f32::NAN, 0.0)));
            fb.inv_noise.fill(f32::NAN);
            fb.llr.fill(i8::MIN);
            fb.decoded.fill(0xAA);
            fb.decode_ok.fill(0);
        }
        for &symbol in pilots.iter().chain(&uplink) {
            (0..g.m).for_each(|ant| pinned.fft_task(fb, &mut s, symbol, ant));
        }
        (0..groups).for_each(|group| pinned.zf_task(fb, &mut s, group));
        for &symbol in &uplink {
            pinned.demod_task(fb, &mut s, 0, symbol, 0, g.q);
            pinned.decode_users_task(fb, &mut s, symbol, 0, g.k);
        }
        let mut worst = [(f64::NEG_INFINITY, 1.0); 5];
        let at = |plane: String| format!("{what} {tier:?} {plane}");
        let row = |plane: &agora_core::buffers::Plane<Cf32>, key| -> Vec<Cf64> {
            unsafe { plane.view(Some(key)) }.iter().map(|z| z.to_f64()).collect()
        };

        let csi: Vec<Vec<Cf64>> = (0..groups).map(|group| row(&fb.csi, group)).collect();
        for ant in 0..g.m {
            let want = sources.iter().map(|&(symbol, sc, p)| x[symbol][ant].0[sc] / p);
            let err =
                norm(want.clone().enumerate().map(|(i, w)| csi[i / g.k][ant * g.k + i % g.k] - w));
            let fft: f64 = pilots.iter().map(|&symbol| x[symbol][ant].1).sum();
            let bound = fft / min_pilot + 3.0 * EPS * norm(want);
            within(&mut worst[0], err, bound, || at(format!("csi, antenna {ant}")));
        }
        for (group, h) in csi.iter().enumerate() {
            // H[ant][user] as the pilot FFTs left it; G = H^H H; W = G^-1 H^H.
            let gram: Vec<Cf64> = (0..g.k * g.k)
                .map(|i| (0..g.m).map(|a| h[a * g.k + i / g.k].conj() * h[a * g.k + i % g.k]).sum())
                .collect();
            let gram_inv = inverse(gram.clone(), g.k);
            let w: Vec<Cf64> = (0..g.k * g.m)
                .map(|i| {
                    (0..g.k)
                        .map(|j| gram_inv[i / g.m * g.k + j] * h[i % g.m * g.k + j].conj())
                        .sum()
                })
                .collect();
            let det = row(&fb.det, group);
            let kappa = norm(gram) * norm(gram_inv);
            let bound = C_ZF * (g.m + g.k) as f64 * EPS * kappa * norm(w.clone());
            let err = norm(det.iter().zip(&w).map(|(&d, &w)| d - w));
            within(&mut worst[1], err, bound, || at(format!("det, group {group}")));
            let inv_noise = unsafe { fb.inv_noise.view(Some(group)) };
            for (user, &got) in inv_noise.iter().enumerate() {
                let norm_sqr = norm(det[user * g.m..][..g.m].iter().copied()).powi(2);
                let want = 1.0 / (cfg.noise_power.max(1e-9) as f64 * norm_sqr).max(1e-12);
                let bound = (g.m + 5) as f64 * EPS * want;
                within(&mut worst[2], (got as f64 - want).abs(), bound, || {
                    at(format!("inv_noise, group {group} user {user}"))
                });
            }
        }

        for &symbol in &uplink {
            let freq = row(&fb.freq, symbol);
            let y = |sc: usize, ant: usize| freq[(sc / b * g.m + ant) * b + sc % b];
            for (ant, (want, bound)) in x[symbol].iter().enumerate() {
                let err = norm((0..g.q).map(|sc| y(sc, ant) - want[sc]));
                within(&mut worst[3], err, *bound, || at(format!("freq, antenna {ant}")));
            }
            for user in 0..g.k {
                let llr = unsafe { fb.llr.view(Some((symbol, user))) };
                for sc in 0..g.q {
                    let det = &row(&fb.det, sc / g.zf_group)[user * g.m..][..g.m];
                    let eq: Cf64 = (0..g.m).map(|a| det[a] * y(sc, a)).sum();
                    let e = (g.m + 3) as f64
                        * EPS
                        * (0..g.m).map(|a| det[a].abs() * y(sc, a).abs()).sum::<f64>();
                    for bit in 0..bps {
                        let mut d = [f64::INFINITY; 2];
                        for (v, &s) in points.iter().enumerate() {
                            d[v >> bit & 1] = d[v >> bit & 1].min((eq - s).norm_sqr());
                        }
                        let want = (steps * (d[1] - d[0])).clamp(-127.0, 127.0);
                        let moved: f64 = d.iter().map(|&d| 2.0 * e * d.sqrt() + e * e).sum();
                        let rounding = 4.0 * EPS * (eq.abs() + s_max).powi(2);
                        let bound = steps * (moved + rounding) + 4.0 * EPS * want.abs();
                        let err = (llr[sc * bps + bit] as f64 - want).abs() - 0.5;
                        within(&mut worst[4], err, bound, || {
                            at(format!(
                                "llr, symbol {symbol} user {user} subcarrier {sc} bit {bit}"
                            ))
                        });
                    }
                }
                let decoded = unsafe { fb.decoded.view(Some((symbol, user))) };
                let ok = unsafe { fb.decode_ok.view(Some((symbol, user))) }[0] == 1;
                let sent = &truth.info_bits[symbol][user];
                assert!(
                    ok && decoded == sent,
                    "{}",
                    at(format!("symbol {symbol} user {user} bits"))
                );
            }
        }
        for (plane, (err, bound)) in ["csi", "det", "inv_noise", "freq", "llr"].iter().zip(worst) {
            println!(
                "{what} {tier:?} {plane}: worst error {err:.3e}, bound {bound:.3e} ({:.2} of it)",
                err / bound
            );
        }
    }
}

/// The 8x2 test cell at QPSK, 16-QAM and 64-QAM with frequency-
/// orthogonal pilots, and at 16-QAM with time-orthogonal ones, two
/// uplink symbols.
#[test]
fn small_cell_uplink_matches_the_f64_reference() {
    use PilotScheme::*;
    for (scheme, pilots) in [
        (ModScheme::Qpsk, FrequencyOrthogonal),
        (ModScheme::Qam16, FrequencyOrthogonal),
        (ModScheme::Qam64, FrequencyOrthogonal),
        (ModScheme::Qam16, TimeOrthogonal),
    ] {
        let mut cell = CellConfig::tiny_test(2);
        (cell.modulation, cell.pilot_scheme) = (scheme, pilots);
        cell.schedule = FrameSchedule::uplink(if pilots == TimeOrthogonal { 2 } else { 1 }, 2);
        check(cell, 30.0);
    }
}

/// One 64x16 uplink symbol of the benchmark's cell (64-QAM, 2048/1200).
#[test]
fn paper_cell_uplink_matches_the_f64_reference() {
    check(CellConfig::emulated_rru(64, 16, 1), 25.0);
}
