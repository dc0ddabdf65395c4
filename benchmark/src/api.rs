//! The adapter: every call into the repo's crates is in this file.
//!
//! The rest of the benchmark sees only the plain types defined here,
//! so a later change that renames or merges something in `crates/*`
//! is absorbed by one file — and a change that is *judged* by the
//! benchmark never needs to touch it, because nothing here reaches
//! past the public, default-configured surface: no `Ablation` field,
//! no tier-suffixed kernel variant. README.md lists each item used.

use crate::trace::{Span, Tracer, NO_FRAME, NO_PARENT};
use agora_core::inline_engine::InlineResult;
use agora_core::kernels::{mac_payload, WorkerScratch};
use agora_core::{
    Deployment, DeploymentConfig, Engine, EngineConfig, EngineStats, FrameResult, InlineProcessor,
};
use agora_fft::{Direction, FftPlan, SubcarrierMap};
use agora_fronthaul::packet::{decode_ref, encode, encode_into, PacketHeader};
use agora_fronthaul::{
    CellDemux, FrameGroundTruth, Fronthaul, MemFronthaul, PacketBuf, PacketPool, RruConfig,
    RruEmulator, UdpFronthaul,
};
use agora_ldpc::{
    quantize_llrs, DecodeConfig, DecodeConfigI8, Decoder, DecoderI8, Encoder, DEFAULT_LLR_SCALE,
};
use agora_math::{pinv_into, CMat, Cf32, Gemm, PinvMethod, PinvScratch};
use agora_phy::demod::{demod_soft, demod_soft_simd};
use agora_phy::frame::{FrameSchedule, SymbolType};
use agora_phy::modulation::modulate;
use agora_phy::precode::precode_batch;
use agora_phy::zf::{zf_task, ZfBuffer, ZfConfig};
use agora_phy::{CellConfig, CsiBuffer};
use agora_queue::{IdleGate, MpmcQueue, Msg, TaskLane, TaskType};
use bytes::Bytes;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One fronthaul packet (header + IQ payload), cheap to clone.
pub type Packet = Bytes;

/// Task kinds in the order every per-type array in this file uses.
pub const TASK_NAMES: [&str; 7] = ["fft", "zf", "demod", "decode", "encode", "precode", "ifft"];

// ---------------------------------------------------------------- cells

/// A cell shape. Built only by the named constructors: the benchmark's
/// shapes are part of its definition, not options.
#[derive(Clone)]
pub struct Cell {
    cfg: CellConfig,
}

impl Cell {
    /// The paper's 64×16, 1 ms uplink frame: one pilot and 13 uplink
    /// symbols, 2048-point FFT, 1200 subcarriers, 64-QAM, BG1 Z = 104.
    pub fn paper_uplink() -> Cell {
        Cell { cfg: CellConfig::emulated_rru(64, 16, 13) }
    }

    /// The same cell transmitting: one pilot and 13 downlink symbols.
    pub fn paper_downlink() -> Cell {
        Cell::paper_uplink().with_schedule(FrameSchedule::downlink(1, 13))
    }

    /// 8×2, 256-point FFT, QPSK, BG2 Z = 12, one pilot and 13 uplink
    /// symbols: tasks of a few microseconds.
    pub fn tiny_uplink() -> Cell {
        Cell { cfg: CellConfig::tiny_test(13) }
    }

    /// The same shape with a pilot, one uplink and one downlink symbol,
    /// so that one frame primes the buffers every task body reads.
    pub fn probe_variant(&self) -> Cell {
        self.clone().with_schedule(FrameSchedule::parse("PUD").expect("literal schedule"))
    }

    fn with_schedule(mut self, schedule: FrameSchedule) -> Cell {
        self.cfg.schedule = schedule;
        self.cfg.validate().expect("benchmark cell shapes are valid");
        self
    }

    pub fn antennas(&self) -> usize {
        self.cfg.num_antennas
    }

    pub fn users(&self) -> usize {
        self.cfg.num_users
    }

    pub fn uplink_symbols(&self) -> Vec<usize> {
        self.cfg.schedule.uplink_indices()
    }

    pub fn downlink_symbols(&self) -> Vec<usize> {
        self.cfg.schedule.downlink_indices()
    }

    /// Symbols the RRU sends packets for (pilot and uplink).
    fn is_received(&self, symbol: usize) -> bool {
        matches!(self.cfg.schedule.symbol(symbol), SymbolType::Pilot | SymbolType::Uplink)
    }

    /// Packets the engine needs to complete one frame.
    pub fn packets_per_frame(&self) -> usize {
        (0..self.cfg.symbols_per_frame()).filter(|&s| self.is_received(s)).count()
            * self.cfg.num_antennas
    }

    /// Wire size of one packet.
    pub fn packet_len(&self) -> usize {
        agora_fronthaul::HEADER_LEN + self.cfg.samples_per_symbol() * 3
    }

    /// Frames the engine keeps in flight (its default window); also the
    /// warm-up length of every phase.
    pub fn frame_window(&self) -> usize {
        self.engine_defaults().frame_window
    }

    /// The engine's defaults for this cell (window, block and batch sizes).
    fn engine_defaults(&self) -> EngineConfig {
        EngineConfig::new(self.cfg.clone(), 1)
    }
}

/// A cell plus what its receiver must be told about the channel.
#[derive(Clone)]
pub struct CellSetup {
    pub cell: Cell,
    pub noise_power: f32,
}

impl CellSetup {
    /// `EngineConfig::new` defaults with only `noise_power` set.
    fn engine_config(&self, workers: usize) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.cell.cfg.clone(), workers);
        cfg.noise_power = self.noise_power;
        cfg
    }
}

// ------------------------------------------------------------ generator

/// What the generator knows about a frame it made.
pub struct Truth {
    inner: FrameGroundTruth,
}

/// The emulated RRU for one cell.
pub struct Rru {
    inner: RruEmulator,
    cell: Cell,
}

impl Rru {
    /// Defaults (25 dB, flat unit-magnitude channel redrawn per frame)
    /// with the seed and the header's cell id set.
    pub fn new(cell: &Cell, seed: u64, cell_id: u8) -> Rru {
        let cfg = RruConfig { seed, cell_id, ..Default::default() };
        Rru { inner: RruEmulator::new(cell.cfg.clone(), cfg), cell: cell.clone() }
    }

    pub fn setup(&self) -> CellSetup {
        CellSetup { cell: self.cell.clone(), noise_power: self.inner.noise_power() }
    }

    /// One frame's packets in (symbol, antenna) order with its truth.
    /// Downlink-slot packets are dropped: a TDD RRU sends nothing then.
    pub fn frame(&mut self, id: u32) -> (Vec<Packet>, Truth) {
        let (packets, truth) = self.inner.generate_frame(id);
        let packets = packets
            .into_iter()
            .filter(|p| self.cell.is_received(header(p).symbol as usize))
            .collect();
        (packets, Truth { inner: truth })
    }
}

/// The fields of a packet header the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub frame: u32,
    pub symbol: u16,
    pub antenna: u16,
    pub cell: u8,
}

/// Parses a packet the generator made.
pub fn header(pkt: &[u8]) -> Header {
    let (h, _) = decode_ref(pkt).expect("generator packets are well-formed");
    Header { frame: h.frame, symbol: h.symbol, antenna: h.antenna, cell: h.cell }
}

/// A copy of `pkt` whose header names `frame`; the payload is untouched.
pub fn restamp(pkt: &[u8], frame: u32) -> Packet {
    let (h, payload) = decode_ref(pkt).expect("generator packets are well-formed");
    encode(&PacketHeader { frame, ..h }, payload)
}

// ----------------------------------------------------------------- link

/// An in-memory fronthaul: the generator's end and the engine's end.
pub struct Link {
    rru: MemFronthaul,
    bbu: MemFronthaul,
}

impl Link {
    /// A link that holds `capacity` packets per direction.
    pub fn new(capacity: usize) -> Link {
        let (rru, bbu) = MemFronthaul::pair(capacity.max(2));
        Link { rru, bbu }
    }

    /// Sends `packets` as one burst. `false` if the link filled up
    /// (it is sized so that it never does; the caller counts a failure).
    pub fn send_burst(&self, packets: impl IntoIterator<Item = Packet>) -> bool {
        let mut burst: VecDeque<PacketBuf> = packets.into_iter().map(PacketBuf::Heap).collect();
        self.rru.send_batch(&mut burst);
        burst.is_empty()
    }

    /// Packets not yet taken by the engine.
    pub fn pending(&self) -> usize {
        self.bbu.pending()
    }
}

/// The engine's end of a [`Link`] during a traced run: a span per
/// non-empty `recv_batch`, a count of polls and of empty ones.
struct TappedLink<'a> {
    inner: &'a MemFronthaul,
    tracer: &'a Tracer,
    /// Zero of the span clock: the engine's start.
    epoch: Instant,
    polls: AtomicU64,
    empty_polls: AtomicU64,
}

impl Fronthaul for TappedLink<'_> {
    fn send(&self, packet: PacketBuf) -> Result<(), PacketBuf> {
        self.inner.send(packet)
    }

    fn recv(&self) -> Option<PacketBuf> {
        self.inner.recv()
    }

    fn recv_batch(&self, out: &mut Vec<PacketBuf>, max: usize) -> usize {
        let t0 = Instant::now();
        let n = self.inner.recv_batch(out, max);
        self.polls.fetch_add(1, Ordering::Relaxed);
        if n == 0 {
            self.empty_polls.fetch_add(1, Ordering::Relaxed);
        } else {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.tracer.record(Span {
                name: "transport.recv_batch",
                layer: "transport",
                start_ns: ns(t0),
                end_ns: ns(Instant::now()),
                frame: NO_FRAME,
                parent: NO_PARENT,
                lane: 2,
            });
        }
        n
    }
}

// --------------------------------------------------- system under test

/// What one [`Sut::run`] returned.
pub struct RunOut {
    /// Read just before the engine started its own frame clock.
    pub started: Instant,
    /// `[cell][frame]`, in frame order.
    pub outs: Vec<Vec<FrameOut>>,
    /// `recv_batch` calls on the link, and how many came back empty
    /// (both 0 unless traced).
    pub polls: u64,
    pub empty_polls: u64,
}

/// One frame as the engine returned it. Times are nanoseconds since
/// the `run` call that produced it.
pub struct FrameOut {
    pub frame: u32,
    pub dropped: bool,
    pub first_packet_ns: u64,
    pub processing_start_ns: u64,
    pub pilot_done_ns: u64,
    pub zf_done_ns: u64,
    /// Last decode (uplink frames) or last IFFT (downlink frames).
    pub done_ns: u64,
    result: FrameResult,
}

/// Cumulative counters of a [`Sut`]; subtract two snapshots for a run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub busy_ns: [u64; 7],
    /// Queue messages run: the unit the manager dispatches and a worker
    /// executes, a batch of task bodies.
    pub messages: [u64; 7],
    pub steals: u64,
    pub parks: u64,
    pub lane_pushes: u64,
    pub lane_overflows: u64,
    pub push_retries: u64,
    pub rx_batches: u64,
    pub rx_packets: u64,
    pub migrations: u64,
    pub misrouted: u64,
}

impl Counters {
    fn read(stats: &EngineStats) -> Counters {
        Counters {
            busy_ns: TaskType::COMPUTE.map(|t| stats.busy_ns(t)),
            messages: TaskType::COMPUTE.map(|t| stats.messages(t)),
            steals: stats.steals(),
            parks: stats.parks(),
            lane_pushes: stats.lane_pushes(),
            lane_overflows: stats.lane_overflows(),
            push_retries: stats.total_push_retries(),
            rx_batches: stats.rx_batches(),
            rx_packets: stats.rx_batch_packets(),
            migrations: 0,
            misrouted: stats.packets_misrouted(),
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let sub7 = |a: &[u64; 7], b: &[u64; 7]| std::array::from_fn(|i| a[i] - b[i]);
        Counters {
            busy_ns: sub7(&self.busy_ns, &earlier.busy_ns),
            messages: sub7(&self.messages, &earlier.messages),
            steals: self.steals - earlier.steals,
            parks: self.parks - earlier.parks,
            lane_pushes: self.lane_pushes - earlier.lane_pushes,
            lane_overflows: self.lane_overflows - earlier.lane_overflows,
            push_retries: self.push_retries - earlier.push_retries,
            rx_batches: self.rx_batches - earlier.rx_batches,
            rx_packets: self.rx_packets - earlier.rx_packets,
            migrations: self.migrations - earlier.migrations,
            misrouted: self.misrouted - earlier.misrouted,
        }
    }
}

/// The threaded system: one engine, or a deployment of several cells on
/// a shared pool. Construction spawns its workers; drop joins them.
pub enum Sut {
    Engine(Engine),
    Deployment(Box<Deployment>),
}

impl Sut {
    /// One cell → `Engine`; several → `Deployment` with a pool of
    /// `workers`. Everything else is the repo's default.
    pub fn build(cells: &[CellSetup], workers: usize) -> Sut {
        match cells {
            [one] => Sut::Engine(Engine::new(one.engine_config(workers))),
            many => {
                let cfgs = many.iter().map(|c| c.engine_config(workers)).collect();
                let cfg = DeploymentConfig::new(cfgs, workers);
                cfg.validate().expect("benchmark deployment is valid");
                Sut::Deployment(Box::new(Deployment::new(cfg)))
            }
        }
    }

    /// Processes `frames` frames per cell from `link`. Blocks until
    /// every frame is returned, which needs `done` to turn true after
    /// the last send. With a tracer, every non-empty `recv_batch` on the
    /// link becomes a span and polls are counted.
    pub fn run(
        &self,
        link: &Link,
        frames: u32,
        done: &AtomicBool,
        tracer: Option<&Tracer>,
    ) -> RunOut {
        let started = Instant::now();
        let (results, polls) = match tracer {
            Some(tracer) => {
                let tapped = TappedLink {
                    inner: &link.bbu,
                    tracer,
                    epoch: started,
                    polls: AtomicU64::new(0),
                    empty_polls: AtomicU64::new(0),
                };
                let results = self.run_on(&tapped, frames, done);
                (results, (tapped.polls.into_inner(), tapped.empty_polls.into_inner()))
            }
            None => (self.run_on(&link.bbu, frames, done), (0, 0)),
        };
        let outs = results
            .into_iter()
            .map(|cell| cell.into_iter().map(FrameOut::from).collect())
            .collect();
        RunOut { started, outs, polls: polls.0, empty_polls: polls.1 }
    }

    fn run_on<F: Fronthaul + Sync>(
        &self,
        fh: &F,
        frames: u32,
        done: &AtomicBool,
    ) -> Vec<Vec<FrameResult>> {
        match self {
            Sut::Engine(engine) => vec![engine.process_fronthaul(fh, frames, done)],
            Sut::Deployment(deployment) => deployment.process_fronthaul(fh, frames, done),
        }
    }

    pub fn counters(&self) -> Counters {
        match self {
            Sut::Engine(engine) => Counters::read(engine.stats()),
            Sut::Deployment(deployment) => {
                let stats = deployment.stats();
                let link = Counters::read(stats.link());
                Counters {
                    rx_batches: link.rx_batches,
                    rx_packets: link.rx_packets,
                    misrouted: link.misrouted + deployment.demux_stats().misrouted(),
                    migrations: deployment.migrations(),
                    ..Counters::read(&stats.rollup())
                }
            }
        }
    }
}

impl From<FrameResult> for FrameOut {
    fn from(r: FrameResult) -> FrameOut {
        let m = r.milestones;
        FrameOut {
            frame: r.frame,
            dropped: r.dropped || r.lost_packets > 0,
            first_packet_ns: m.first_packet_ns,
            processing_start_ns: m.processing_start_ns,
            pilot_done_ns: m.pilot_done_ns,
            zf_done_ns: m.zf_done_ns,
            done_ns: m.decode_done_ns.max(m.ifft_done_ns),
            result: r,
        }
    }
}

impl FrameOut {
    /// Returned whole: not dropped, and its last stage has a time.
    pub fn completed(&self) -> bool {
        !self.dropped && self.done_ns > 0
    }

    /// `(blocks, wrong blocks)` of an uplink frame against its truth.
    pub fn uplink_blocks(&self, cell: &Cell, truth: &Truth) -> (usize, usize) {
        uplink_blocks(cell, &self.result.decoded, truth)
    }
}

fn uplink_blocks(cell: &Cell, decoded: &[Vec<Vec<u8>>], truth: &Truth) -> (usize, usize) {
    let mut blocks = 0;
    let mut wrong = 0;
    for symbol in cell.uplink_symbols() {
        for user in 0..cell.users() {
            blocks += 1;
            let got = decoded.get(symbol).and_then(|s| s.get(user));
            if got != Some(&truth.inner.info_bits[symbol][user]) {
                wrong += 1;
            }
        }
    }
    (blocks, wrong)
}

// --------------------------------------------------------------- inline

/// The single-thread processor: baseline and correctness reference.
pub struct Inline {
    proc: InlineProcessor,
}

/// One frame out of [`Inline`].
pub struct InlineOut {
    result: InlineResult,
}

impl Inline {
    pub fn new(setup: &CellSetup) -> Inline {
        Inline { proc: InlineProcessor::new(setup.engine_config(1)) }
    }

    /// All packets must be stamped `frame`.
    pub fn process(&mut self, frame: u32, packets: &[Packet]) -> InlineOut {
        InlineOut { result: self.proc.process_frame(frame, packets) }
    }
}

impl InlineOut {
    pub fn uplink_blocks(&self, cell: &Cell, truth: &Truth) -> (usize, usize) {
        uplink_blocks(cell, &self.result.decoded, truth)
    }

    /// Plays the transmitted antenna signals through the reciprocal
    /// channel (`r_k = Hᵀ y`, TDD) and decodes each user's stream, as
    /// `examples/downlink_beamforming.rs` does: `(blocks, wrong blocks)`
    /// against the payload the engine was asked to send in `frame`.
    pub fn downlink_blocks(&self, cell: &Cell, truth: &Truth, frame: u32) -> (usize, usize) {
        let c = &cell.cfg;
        let map = SubcarrierMap::new(c.fft_size, c.num_data_sc);
        let plan = FftPlan::new(c.fft_size);
        let rm = c.ldpc.rate_match();
        let mut dec = Decoder::new(c.ldpc.base_graph, c.ldpc.z);
        let (mut blocks, mut wrong) = (0, 0);
        let mut rx = vec![Cf32::ZERO; c.fft_size];
        let mut active = vec![Cf32::ZERO; c.num_data_sc];
        let mut llrs = Vec::new();
        for symbol in cell.downlink_symbols() {
            let grids: Vec<Vec<Cf32>> = self.result.dl_time[symbol]
                .iter()
                .map(|t| {
                    let mut grid = t.clone();
                    plan.execute(&mut grid, Direction::Forward);
                    grid
                })
                .collect();
            for user in 0..c.num_users {
                rx.fill(Cf32::ZERO);
                for (ant, grid) in grids.iter().enumerate() {
                    let h = truth.inner.h[(ant, user)];
                    for (acc, &v) in rx.iter_mut().zip(grid) {
                        *acc = h.mul_add(v, *acc);
                    }
                }
                map.demap_symbols(&rx, &mut active);
                // ZF delivers c·x: normalise to unit constellation power.
                let p = active.iter().map(|z| z.norm_sqr()).sum::<f32>() / active.len() as f32;
                for z in active.iter_mut() {
                    *z = z.scale(1.0 / p.sqrt().max(1e-12));
                }
                demod_soft(c.modulation, &active, 0.05, &mut llrs);
                let out = dec.decode(
                    &rm.fill_llrs(&llrs[..rm.tx_len()]),
                    &DecodeConfig {
                        max_iters: 20,
                        active_rows: Some(rm.active_rows()),
                        ..Default::default()
                    },
                );
                let sent = mac_payload(frame, symbol as u32, user as u32, rm.info_len());
                blocks += 1;
                if !(out.success && out.info_bits == sent) {
                    wrong += 1;
                }
            }
        }
        (blocks, wrong)
    }
}

// --------------------------------------------------------------- probes

/// A leaf operation to time. One `run` does `items` units of work; the
/// metric is nanoseconds per unit divided by `unit_ns`.
pub struct Probe {
    pub metric: &'static str,
    pub items: f64,
    /// 1 for a metric in ns, 1000 for one in µs.
    pub unit_ns: f64,
    pub run: Box<dyn FnMut()>,
}

fn probe(metric: &'static str, items: usize, unit_ns: f64, run: impl FnMut() + 'static) -> Probe {
    Probe { metric, items: items as f64, unit_ns, run: Box::new(run) }
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 + 1.0) / (1u64 << 24) as f32
    }

    /// Complex Gaussian with unit variance (Box–Muller).
    fn gauss(&mut self) -> Cf32 {
        let r = (-self.unit().ln()).sqrt();
        Cf32::cis(self.unit() * core::f32::consts::TAU).scale(r)
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut SplitMix) -> CMat {
    CMat::from_fn(rows, cols, |_, _| rng.gauss())
}

/// A noisy received code block at the cell's modulation: soft bits for
/// the decoders, equalized symbols for the demapper.
struct CodeBlock {
    info: Vec<u8>,
    symbols: Vec<Cf32>,
    llrs: Vec<f32>,
}

/// Seed stream of the synthetic code block, so [`decode_iterations`]
/// counts on the block the decode probes time.
const BLOCK_STREAM: u64 = 0xD1CE;

/// LLR noise variance of the synthetic code block (post-equalization
/// SNR of 1/0.02 = 17 dB: decodes, but not in one iteration).
const BLOCK_NOISE: f32 = 0.02;

fn code_block(cell: &Cell, rng: &mut SplitMix) -> CodeBlock {
    let c = &cell.cfg;
    let enc = Encoder::new(c.ldpc.base_graph, c.ldpc.z);
    let rm = c.ldpc.rate_match();
    let info: Vec<u8> = (0..enc.info_len()).map(|_| (rng.next_u64() & 1) as u8).collect();
    let mut tx = rm.extract(&enc.encode(&info));
    tx.resize(c.bits_per_symbol_per_user(), 0);
    let mut symbols = Vec::new();
    modulate(c.modulation, &tx, &mut symbols);
    for z in symbols.iter_mut() {
        *z += rng.gauss().scale((BLOCK_NOISE / 2.0).sqrt());
    }
    let mut llrs = Vec::new();
    demod_soft_simd(c.modulation, &symbols, BLOCK_NOISE, &mut llrs);
    let llrs = rm.fill_llrs(&llrs[..rm.tx_len()]);
    CodeBlock { info, symbols, llrs }
}

/// A well-formed packet of the cell's wire size, with its header.
fn sample_packet(cell: &Cell) -> (PacketHeader, Packet) {
    let payload = vec![0x5Au8; cell.packet_len() - agora_fronthaul::HEADER_LEN];
    let hdr = PacketHeader {
        frame: 7,
        symbol: 3,
        antenna: 5,
        dir: agora_fronthaul::PacketDir::Uplink,
        cell: 1,
        payload_len: payload.len() as u32,
    };
    (hdr, encode(&hdr, &payload))
}

/// Leaf public functions of each layer at the cell's own sizes.
pub fn layer_probes(cell: &Cell, seed: u64) -> Vec<Probe> {
    let c = cell.cfg.clone();
    let (m, k, q, n) = (c.num_antennas, c.num_users, c.num_data_sc, c.fft_size);
    let mut rng = SplitMix(seed);
    let mut out = Vec::new();

    // --- transport
    let (hdr, packet) = sample_packet(cell);
    {
        // Header only: an empty payload keeps the copy out of the figure.
        let bare = PacketHeader { payload_len: 0, ..hdr };
        let mut buf = [0u8; agora_fronthaul::HEADER_LEN];
        out.push(probe("transport.header_ns", 16, 1.0, move || {
            for frame in 0..16u32 {
                encode_into(&PacketHeader { frame, ..bare }, &[], &mut buf);
                std::hint::black_box(decode_ref(std::hint::black_box(&buf)).is_ok());
            }
        }));
    }
    {
        let (tx, rx) = MemFronthaul::pair(64);
        let packet = packet.clone();
        let mut got = Vec::with_capacity(32);
        out.push(probe("transport.mem_ns_per_pkt", 32, 1.0, move || {
            let mut burst: VecDeque<PacketBuf> =
                (0..32).map(|_| PacketBuf::Heap(packet.clone())).collect();
            tx.send_batch(&mut burst);
            rx.recv_batch(&mut got, 32);
            got.clear();
        }));
    }
    {
        let pool = PacketPool::new(64, cell.packet_len());
        out.push(probe("transport.pool_cycle_ns", 16, 1.0, move || {
            for _ in 0..16 {
                let mut slot = pool.acquire().expect("pool is never exhausted here");
                slot.set_len(64);
                std::hint::black_box(&mut slot);
            }
        }));
    }
    {
        let demux = CellDemux::new(2);
        let packet = packet.clone();
        out.push(probe("transport.demux_ns_per_pkt", 16, 1.0, move || {
            for _ in 0..16 {
                std::hint::black_box(demux.classify(std::hint::black_box(&packet)));
            }
        }));
    }

    // --- fft
    // Transforms per call and subcarriers per product: the engine's own.
    let batch = cell.engine_defaults().batch.fft;
    for (metric, dir) in [("fft.fwd_us", Direction::Forward), ("fft.inv_us", Direction::Inverse)] {
        let plan = FftPlan::new(n);
        let fresh: Vec<Cf32> = (0..batch * n).map(|_| rng.gauss()).collect();
        let mut data = fresh.clone();
        out.push(probe(metric, batch, 1e3, move || {
            // Fresh input per pass (the engine unpacks one too): repeated
            // un-normalised transforms would overflow.
            data.copy_from_slice(&fresh);
            plan.execute_batch(&mut data, dir);
            std::hint::black_box(&mut data);
        }));
    }

    // --- mimo-math
    let block = cell.engine_defaults().demod_block;
    for (metric, rows, inner) in [("mimo-math.gemm_eq_ns", k, m), ("mimo-math.gemm_pre_ns", m, k)] {
        let plan = Gemm::plan(rows, inner, block);
        let a = random_matrix(rows, inner, &mut rng);
        let b = random_matrix(inner, block, &mut rng);
        let mut c_out = vec![Cf32::ZERO; rows * block];
        out.push(probe(metric, 1, 1.0, move || {
            plan.run(a.as_slice(), b.as_slice(), &mut c_out);
            std::hint::black_box(&mut c_out);
        }));
    }
    {
        let h = random_matrix(m, k, &mut rng);
        let mut scratch = PinvScratch::new(m, k);
        let mut w = CMat::zeros(k, m);
        out.push(probe("mimo-math.pinv_us", 1, 1e3, move || {
            pinv_into(&h, PinvMethod::Cholesky, &mut scratch, &mut w);
            std::hint::black_box(&mut w);
        }));
    }

    // --- phy
    let block_data = code_block(cell, &mut SplitMix(seed ^ BLOCK_STREAM));
    {
        let symbols = block_data.symbols.clone();
        let mut llrs = Vec::with_capacity(c.bits_per_symbol_per_user());
        out.push(probe("phy.demod_sc_ns", q, 1.0, move || {
            demod_soft_simd(c.modulation, &symbols, BLOCK_NOISE, &mut llrs);
            std::hint::black_box(&mut llrs);
        }));
    }
    let mut csi = CsiBuffer::new(m, k, q);
    for sc in 0..q {
        *csi.at_mut(sc) = random_matrix(m, k, &mut rng);
    }
    let zf_cfg = ZfConfig { group_size: c.zf_group, method: PinvMethod::Cholesky };
    let mut zf = ZfBuffer::new(m, k, q, c.zf_group);
    for group in 0..zf.num_groups() {
        zf_task(&csi, &zf_cfg, group, &mut zf);
    }
    {
        let zf = zf.clone();
        let plan = Gemm::plan(m, k, block);
        let users = random_matrix(k, block, &mut rng);
        let mut ants = vec![Cf32::ZERO; m * block];
        out.push(probe("phy.precode_sc_ns", block, 1.0, move || {
            precode_batch(&zf, 0, block, &plan, users.as_slice(), &mut ants);
            std::hint::black_box(&mut ants);
        }));
    }
    out.push(probe("phy.zf_group_us", 1, 1e3, move || {
        zf_task(&csi, &zf_cfg, 0, &mut zf);
    }));

    // --- ldpc
    let decode_cfg = DecodeConfig {
        max_iters: c.ldpc.max_iters,
        active_rows: Some(c.ldpc.rate_match().active_rows()),
        ..Default::default()
    };
    {
        let mut dec = Decoder::new(c.ldpc.base_graph, c.ldpc.z);
        let llrs = block_data.llrs.clone();
        out.push(probe("ldpc.decode_f32_us", 1, 1e3, move || {
            std::hint::black_box(dec.decode(&llrs, &decode_cfg));
        }));
    }
    {
        let mut dec = DecoderI8::new(c.ldpc.base_graph, c.ldpc.z);
        let mut q_llrs = vec![0i8; block_data.llrs.len()];
        quantize_llrs(&block_data.llrs, &mut q_llrs, DEFAULT_LLR_SCALE);
        let cfg = DecodeConfigI8 {
            max_iters: decode_cfg.max_iters,
            active_rows: decode_cfg.active_rows,
            ..Default::default()
        };
        out.push(probe("ldpc.decode_i8_us", 1, 1e3, move || {
            std::hint::black_box(dec.decode(&q_llrs, &cfg));
        }));
    }
    {
        let enc = Encoder::new(c.ldpc.base_graph, c.ldpc.z);
        let info = block_data.info.clone();
        out.push(probe("ldpc.encode_us", 1, 1e3, move || {
            std::hint::black_box(enc.encode(&info));
        }));
    }

    // --- xqueue
    let msg = Msg::task(TaskType::Fft, 1, 2, 3, 4);
    {
        let queue: MpmcQueue<Msg> = MpmcQueue::new(64);
        out.push(probe("xqueue.mpmc_ns_per_op", 32, 1.0, move || {
            for _ in 0..16 {
                let _ = queue.push(msg);
            }
            for _ in 0..16 {
                std::hint::black_box(queue.pop());
            }
        }));
    }
    for (metric, steal) in [("xqueue.lane_ns_per_msg", false), ("xqueue.steal_ns_per_msg", true)] {
        let lane: TaskLane<Msg> = TaskLane::new(64);
        let batch = [msg; 32];
        let mut got = Vec::with_capacity(32);
        out.push(probe(metric, 32, 1.0, move || {
            lane.push_batch(&batch);
            if steal {
                // A steal takes half the backlog per claim.
                while lane.steal_batch(&mut got, 32) > 0 {}
            } else {
                lane.pop_batch(&mut got, 32);
            }
            got.clear();
        }));
    }
    out
}

/// Iterations the f32 decoder needs on the probe's code block: a count
/// that repeats exactly for a given seed.
pub fn decode_iterations(cell: &Cell, seed: u64) -> f64 {
    let c = &cell.cfg;
    let block = code_block(cell, &mut SplitMix(seed ^ BLOCK_STREAM));
    let mut dec = Decoder::new(c.ldpc.base_graph, c.ldpc.z);
    let out = dec.decode(
        &block.llrs,
        &DecodeConfig {
            max_iters: c.ldpc.max_iters,
            active_rows: Some(c.ldpc.rate_match().active_rows()),
            ..Default::default()
        },
    );
    out.iterations as f64
}

/// Round trips per second between two threads that park on an
/// [`IdleGate`] and wake each other, as microseconds per round trip.
pub fn handoff_us(round_trips: u32) -> f64 {
    let gates = [IdleGate::new(), IdleGate::new()];
    let turn = AtomicU64::new(0);
    let wait_for = |gate: &IdleGate, want: u64| loop {
        let seen = gate.epoch();
        if turn.load(Ordering::Acquire) == want {
            break;
        }
        gate.park(seen, Duration::from_millis(5));
    };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..u64::from(round_trips) {
                wait_for(&gates[1], 2 * i + 1);
                turn.store(2 * i + 2, Ordering::Release);
                gates[0].wake_all();
            }
        });
        for i in 0..u64::from(round_trips) {
            turn.store(2 * i + 1, Ordering::Release);
            gates[1].wake_all();
            wait_for(&gates[0], 2 * i + 2);
        }
    });
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(round_trips)
}

/// Packets per second over loopback UDP with pooled receive buffers and
/// aggregated datagrams: one thread sends a burst that fits the socket
/// buffer, then drains it. 0 when the sandbox has no loopback socket.
pub fn udp_pps(cell: &Cell, bursts: usize) -> f64 {
    const AGGREGATE: usize = 8;
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let pair = || -> std::io::Result<(UdpFronthaul, UdpFronthaul)> {
        let mut a = UdpFronthaul::new(any, any)?;
        let b = UdpFronthaul::new(any, a.local_addr()?)?;
        a.set_peer(b.local_addr()?);
        Ok((a, b))
    };
    let Ok((tx, rx)) = pair() else {
        eprintln!("note: no loopback UDP socket here; transport.udp_pps reads 0");
        return 0.0;
    };
    let burst_len = (65_536 / cell.packet_len()).clamp(AGGREGATE, 64);
    let tx = tx.with_aggregation(AGGREGATE);
    let rx =
        rx.with_aggregation(AGGREGATE).with_pool(PacketPool::new(2 * burst_len, cell.packet_len()));
    let (_, packet) = sample_packet(cell);
    let mut received = 0usize;
    let mut got = Vec::with_capacity(burst_len);
    let t0 = Instant::now();
    for _ in 0..bursts {
        let mut burst: VecDeque<PacketBuf> =
            (0..burst_len).map(|_| PacketBuf::Heap(packet.clone())).collect();
        let mut spins = 0;
        while !burst.is_empty() && spins < 10_000 {
            if tx.send_batch(&mut burst) == 0 {
                spins += 1;
                std::thread::yield_now();
            }
        }
        // Loopback delivery is asynchronous but quick; a datagram the
        // kernel shed shows up as a lower rate, not as a hang.
        let mut want = burst_len - burst.len();
        let mut idle = 0;
        while want > 0 && idle < 10_000 {
            let n = rx.recv_batch(&mut got, want);
            if n == 0 {
                idle += 1;
                std::thread::yield_now();
            } else {
                idle = 0;
                want -= n;
                received += n;
                got.clear();
            }
        }
    }
    received as f64 / t0.elapsed().as_secs_f64()
}

/// One task body: `(processor, this probe's scratch, task index)`.
type TaskBody = Box<dyn Fn(&InlineProcessor, &mut WorkerScratch, usize)>;

/// The engine's task bodies on buffers primed by one inline frame of
/// `setup.cell` (which must be a [`Cell::probe_variant`]): one `run` is
/// one task body, as a worker would execute it.
pub fn kernel_probes(setup: &CellSetup, packets: &[Packet]) -> Vec<Probe> {
    let cell = &setup.cell;
    let mut proc = InlineProcessor::new(setup.engine_config(1));
    let frame = header(&packets[0]).frame;
    proc.process_frame(frame, packets);
    let proc = Rc::new(proc);
    let (m, k, q) = (cell.antennas(), cell.users(), cell.cfg.num_data_sc);
    let ul = cell.uplink_symbols()[0];
    let dl = cell.downlink_symbols()[0];
    let groups = cell.cfg.num_zf_groups();

    // Each probe walks its task index (modulo `tasks`) so successive
    // runs touch the buffers a real frame would, not one hot line.
    let task = |metric, items, unit_ns, tasks: usize, body: TaskBody| {
        let proc = Rc::clone(&proc);
        let mut scratch = proc.kernels().scratch();
        let mut i = 0usize;
        probe(metric, items, unit_ns, move || {
            body(&proc, &mut scratch, i % tasks);
            i += 1;
        })
    };
    vec![
        task("core.kernels.fft_task_us", 1, 1e3, m, {
            Box::new(move |p, s, ant| p.kernels().fft_task(p.buffers(frame), s, ul, ant))
        }),
        task("core.kernels.zf_task_us", 1, 1e3, groups, {
            Box::new(move |p, s, group| p.kernels().zf_task(p.buffers(frame), s, group))
        }),
        task("core.kernels.demod_sc_ns", q, 1.0, 1, {
            Box::new(move |p, s, _| p.kernels().demod_task(p.buffers(frame), s, frame, ul, 0, q))
        }),
        task("core.kernels.decode_task_us", 1, 1e3, k, {
            Box::new(move |p, s, user| p.kernels().decode_task(p.buffers(frame), s, ul, user))
        }),
        task("core.kernels.encode_task_us", 1, 1e3, k, {
            Box::new(move |p, _, user| p.kernels().encode_task(p.buffers(frame), frame, dl, user))
        }),
        task("core.kernels.precode_sc_ns", q, 1.0, 1, {
            Box::new(move |p, s, _| p.kernels().precode_task(p.buffers(frame), s, dl, 0, q))
        }),
        task("core.kernels.ifft_task_us", 1, 1e3, m, {
            Box::new(move |p, s, ant| p.kernels().ifft_task(p.buffers(frame), s, dl, ant))
        }),
    ]
}
