//! Fronthaul batching benchmark: sustained packets/s through a real UDP
//! loopback at the 64-antenna uplink packet shape (384-byte IQ
//! payloads), for three intake configurations —
//!
//! * `single`          one sendto/recvfrom syscall per packet,
//! * `batched`         `sendmmsg`/`recvmmsg` bursts into heap buffers,
//! * `batched+pooled`  bursts coalesced into symbol-sized jumbo
//!   datagrams (16 packets each) that split into recycled `PacketPool`
//!   slabs on receive (zero steady-state allocations) — per-datagram
//!   kernel cost, not the syscall boundary, dominates UDP, so
//!   aggregation is what buys line rate,
//!
//! — plus an intake-to-FFT latency probe: `Engine::process_fronthaul`
//! drains pre-queued frames at the same packet shape and the per-frame
//! first-packet → pilot-FFT-done milestone gap is reported per mode
//! (`rx_batch` 1 vs 64; the pooled mode stages payloads in recycled
//! slab slots). Mirrors the paper's fig. 10 argument that packet I/O
//! must batch to keep the FFT stage fed at line rate.
//!
//! Writes `results/fronthaul_batch.csv` and exits non-zero if the
//! batched+pooled configuration fails a 3x speedup gate over
//! single-syscall I/O (best of 5 trials), unless the kernel lacks the
//! mmsg syscalls (graceful skip).

use agora_bench::csv::write_csv;
use agora_core::{Engine, EngineConfig};
use agora_fronthaul::{
    encode, Fronthaul, MemFronthaul, PacketBuf, PacketDir, PacketHeader, PacketPool, RruConfig,
    RruEmulator, UdpFronthaul,
};
use agora_ldpc::BaseGraphId;
use agora_phy::frame::LdpcParams;
use agora_phy::pilots::PilotScheme;
use agora_phy::{CellConfig, FrameSchedule, ModScheme};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Reduced 64-antenna, 16-user cell (128-point FFT): the paper's
/// antenna/user counts at a bench-friendly FFT size; uplink packets
/// carry 128 samples x 3 B = 384-byte payloads.
fn cell_64x16() -> CellConfig {
    let cell = CellConfig {
        num_antennas: 64,
        num_users: 16,
        fft_size: 128,
        num_data_sc: 64,
        cp_len: 0,
        modulation: ModScheme::Qpsk,
        pilot_scheme: PilotScheme::FrequencyOrthogonal,
        zf_group: 16,
        ldpc: LdpcParams { base_graph: BaseGraphId::Bg2, z: 4, rate: 1.0 / 3.0, max_iters: 8 },
        schedule: FrameSchedule::uplink(1, 2),
        symbol_duration_ns: 71_000,
    };
    cell.validate().expect("bench cell must validate");
    cell
}

const BURST: usize = 128;
const CYCLES: usize = 200;
const TRIALS: usize = 5;
const PAYLOAD: usize = 384;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Single,
    Batched,
    BatchedPooled,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Single => "single",
            Mode::Batched => "batched",
            Mode::BatchedPooled => "batched+pooled",
        }
    }
}

/// Packets coalesced per jumbo datagram in the pooled mode: one
/// datagram per 16 antennas' worth of a symbol.
const AGGREGATE: usize = 16;

fn udp_pair(pool: Option<PacketPool>, aggregate: usize) -> (UdpFronthaul, UdpFronthaul) {
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut tx = UdpFronthaul::new(any, any).expect("bind tx");
    let mut rx = UdpFronthaul::new(any, tx.local_addr().unwrap()).expect("bind rx");
    if let Some(p) = pool {
        rx = rx.with_pool(p);
    }
    if aggregate > 0 {
        tx = tx.with_aggregation(aggregate);
        rx = rx.with_aggregation(aggregate);
    }
    tx.set_peer(rx.local_addr().unwrap());
    (tx, rx)
}

/// One burst of 64-antenna uplink packets (antenna-major, one symbol).
fn burst_template() -> Vec<PacketBuf> {
    let payload = vec![0x5Au8; PAYLOAD];
    (0..BURST)
        .map(|i| {
            PacketBuf::from(encode(
                &PacketHeader {
                    frame: (i / 64) as u32,
                    symbol: 0,
                    antenna: (i % 64) as u16,
                    dir: PacketDir::Uplink,
                    cell: 0,
                    payload_len: PAYLOAD as u32,
                },
                &payload,
            ))
        })
        .collect()
}

/// Consecutive empty polls before a drain loop gives the burst up for
/// lost. UDP loopback sheds packets silently when the socket buffer
/// fills, so an unbounded "wait for all of them" loop can hang; a lost
/// packet simply doesn't count toward the trial's packet rate.
const DRAIN_BUDGET: u32 = 10_000;

/// Single-threaded burst ping: send a burst, drain it, repeat. Returns
/// (delivered packets/s, mean non-empty receive batch size).
fn throughput_trial(mode: Mode) -> (f64, f64) {
    let pool = (mode == Mode::BatchedPooled).then(|| PacketPool::new(256, 2048));
    let aggregate = if mode == Mode::BatchedPooled { AGGREGATE } else { 0 };
    let (tx, rx) = udp_pair(pool, aggregate);
    let template = burst_template();
    let mut outgoing: VecDeque<PacketBuf> = VecDeque::with_capacity(BURST);
    let mut got: Vec<PacketBuf> = Vec::with_capacity(BURST);
    let (mut batches, mut batch_pkts) = (0u64, 0u64);
    let mut delivered = 0usize;
    let t0 = Instant::now();
    for _ in 0..CYCLES {
        outgoing.extend(template.iter().cloned());
        let mut empty = 0u32;
        match mode {
            Mode::Single => {
                while let Some(pkt) = outgoing.pop_front() {
                    let mut p = pkt;
                    while let Err(back) = tx.send(p) {
                        p = back;
                        std::thread::yield_now();
                    }
                }
                while got.len() < BURST && empty < DRAIN_BUDGET {
                    match rx.recv() {
                        Some(p) => {
                            got.push(p);
                            empty = 0;
                        }
                        None => {
                            empty += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            Mode::Batched | Mode::BatchedPooled => {
                while !outgoing.is_empty() {
                    if tx.send_batch(&mut outgoing) == 0 {
                        std::thread::yield_now();
                    }
                }
                while got.len() < BURST && empty < DRAIN_BUDGET {
                    let want = BURST - got.len();
                    let n = rx.recv_batch(&mut got, want);
                    if n == 0 {
                        empty += 1;
                        std::thread::yield_now();
                    } else {
                        empty = 0;
                        batches += 1;
                        batch_pkts += n as u64;
                    }
                }
            }
        }
        delivered += got.len();
        got.clear();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let pps = delivered as f64 / elapsed;
    let mean_batch = if batches == 0 { 1.0 } else { batch_pkts as f64 / batches as f64 };
    (pps, mean_batch)
}

/// Best-of-N trials (throughput benches race the scheduler; the best
/// trial is the least-disturbed one).
fn best_of(mode: Mode) -> (f64, f64) {
    (0..TRIALS).map(|_| throughput_trial(mode)).fold(
        (0.0, 0.0),
        |acc, t| {
            if t.0 > acc.0 {
                t
            } else {
                acc
            }
        },
    )
}

/// Drains pre-queued frames from a lossless in-memory link into the
/// engine and returns the mean first-packet -> pilot-FFT-done gap (ns)
/// across completed frames. Pre-queueing keeps the probe deterministic
/// on a loaded machine — a concurrently paced UDP producer would race
/// the engine threads for cores and shed packets — while the batching
/// knob still varies per mode: `rx_batch` 1 vs 64, and the pooled mode
/// stages every payload in a recycled `PacketPool` slab so the FFT
/// stage reads straight out of pool memory.
fn intake_to_fft_ns(mode: Mode) -> f64 {
    let cell = cell_64x16();
    let frames = 8u32;
    let per_frame = cell.symbols_per_frame() * cell.num_antennas;
    let total = frames as usize * per_frame;
    let mut rru =
        RruEmulator::new(cell.clone(), RruConfig { snr_db: 30.0, seed: 77, ..Default::default() });
    let noise = rru.noise_power();
    let pool =
        (mode == Mode::BatchedPooled).then(|| PacketPool::new(total.next_power_of_two(), 2048));
    let (tx, rx) = MemFronthaul::pair(total.next_power_of_two());
    for f in 0..frames {
        let (pkts, _truth) = rru.generate_frame(f);
        for b in pkts {
            let pkt = match &pool {
                Some(p) => {
                    let mut slot = p.acquire().expect("pool sized for the whole run");
                    slot.buf_mut()[..b.len()].copy_from_slice(&b);
                    slot.set_len(b.len());
                    PacketBuf::Pooled(slot)
                }
                None => PacketBuf::Heap(b),
            };
            tx.send(pkt).expect("mem link sized for the whole run");
        }
    }
    let mut cfg = EngineConfig::new(cell, 3);
    cfg.noise_power = noise;
    cfg.rx_batch = match mode {
        Mode::Single => 1,
        _ => 64,
    };
    let engine = Engine::new(cfg);
    // Every packet is already queued, so the producer is done up front;
    // the net thread drains the link and exits on its first empty poll.
    let done = AtomicBool::new(true);
    let results = engine.process_fronthaul(&rx, frames, &done);
    let gaps: Vec<u64> = results
        .iter()
        .filter(|r| !r.dropped && r.milestones.pilot_done_ns > 0)
        .map(|r| r.milestones.pilot_done_ns.saturating_sub(r.milestones.first_packet_ns))
        .collect();
    if gaps.is_empty() {
        return f64::NAN;
    }
    gaps.iter().sum::<u64>() as f64 / gaps.len() as f64
}

fn main() {
    // Probe: if the kernel refuses the mmsg syscalls, the batched modes
    // silently degrade to the portable loop — a speedup gate would
    // measure nothing, so skip gracefully.
    let (probe_tx, _probe_rx) = udp_pair(None, 0);
    let mut probe: VecDeque<PacketBuf> = burst_template().into_iter().take(4).collect();
    probe_tx.send_batch(&mut probe);
    if !probe_tx.batched_syscalls_active() {
        println!("fronthaul_batch: mmsg syscalls unavailable on this kernel; skipping gate");
        write_csv(
            "fronthaul_batch",
            "mode,pps,speedup,mean_rx_batch,intake_fft_ns",
            &["single,0,1.0,1.0,nan".to_string()],
        );
        return;
    }

    println!(
        "fronthaul batching bench: {BURST}-packet bursts x {CYCLES} cycles, \
         {PAYLOAD}-byte payloads, best of {TRIALS} trials\n"
    );
    let modes = [Mode::Single, Mode::Batched, Mode::BatchedPooled];
    let mut pps = Vec::new();
    let mut rows = Vec::new();
    for &mode in &modes {
        let (p, mean_batch) = best_of(mode);
        let latency = intake_to_fft_ns(mode);
        let speedup = if mode == Mode::Single { 1.0 } else { p / pps[0] };
        println!(
            "{:<16} {:>12.0} pps  {:>6.2}x  mean rx batch {:>5.1}  intake->FFT {:>9.0} ns",
            mode.name(),
            p,
            speedup,
            mean_batch,
            latency,
        );
        rows.push(format!("{},{p:.0},{speedup:.3},{mean_batch:.2},{latency:.0}", mode.name()));
        pps.push(p);
    }
    let path = write_csv("fronthaul_batch", "mode,pps,speedup,mean_rx_batch,intake_fft_ns", &rows);
    println!("\nwrote {}", path.display());

    let gate = pps[2] / pps[0];
    if gate < 3.0 {
        println!("FAIL: batched+pooled speedup {gate:.2}x is below the 3x gate");
        std::process::exit(1);
    }
    println!("OK: batched+pooled sustains {gate:.2}x single-syscall packet rate");
}
