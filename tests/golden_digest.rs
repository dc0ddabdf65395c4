//! Cross-commit oracle for the engine's one configuration.
//!
//! The engine has no alternative dataflow left to compare the default
//! against, so what pins its output is a digest of the output itself: a
//! fixed seed, a few frames, and an FNV-1a hash over the decoded bits,
//! the decode flags, the bytes of the `i8` LLR plane and the f32 bit
//! patterns of the downlink time-domain samples — read out of the frame
//! planes, so the threaded engine is held to all four as well. The
//! threaded engine takes its packets the way the benchmark feeds it: in
//! batches off a fronthaul link (`process_fronthaul` over
//! `MemFronthaul::preloaded`). `default_path_digests_are_pinned` holds the inline
//! rows of the three small cells and threaded ≡ inline;
//! `dump_bit_identity_rows` (ignored; `cargo test --release --test
//! golden_digest -- --ignored --nocapture`) prints every row, inline and
//! threaded, for a parent-vs-change log such as
//! `results/logs/pr22_bit_identity.txt`.
//! A kernel change that is meant to be bit-exact must leave every row as
//! it is; one that is not must say so and re-pin.

use agora_core::buffers::FrameBuffers;
use agora_core::{Engine, EngineConfig, InlineProcessor};
use agora_fronthaul::{MemFronthaul, RruConfig, RruEmulator};
use agora_phy::frame::FrameSchedule;
use agora_phy::CellConfig;
use std::sync::atomic::AtomicBool;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digests of what a run decoded: `(bits, decode_ok)` over every frame's
/// `[symbol][user]` blocks in order.
fn decoded_digest<'a>(
    frames: impl Iterator<Item = (&'a Vec<Vec<Vec<u8>>>, &'a Vec<Vec<bool>>)>,
) -> (u64, u64) {
    let (mut bits, mut ok) = (Fnv::new(), Fnv::new());
    for (decoded, decode_ok) in frames {
        decoded.iter().flatten().for_each(|block| bits.eat(block));
        decode_ok.iter().flatten().for_each(|&flag| ok.eat(&[flag as u8]));
    }
    (bits.0, ok.0)
}

struct Row {
    name: &'static str,
    cell: CellConfig,
    frames: u32,
}

fn with_schedule(mut cell: CellConfig, schedule: &str) -> CellConfig {
    cell.schedule = FrameSchedule::parse(schedule).unwrap();
    cell.validate().unwrap();
    cell
}

fn rows() -> Vec<Row> {
    let tiny = CellConfig::tiny_test(2);
    let tdd = with_schedule(tiny.clone(), "PUUDD");
    let dl = with_schedule(tiny.clone(), "PDD");
    let big = CellConfig::emulated_rru(64, 16, 2);
    vec![
        Row { name: "tiny_uplink", cell: tiny, frames: 2 },
        Row { name: "tiny_tdd_PUUDD", cell: tdd, frames: 2 },
        Row { name: "tiny_downlink_PDD", cell: dl, frames: 2 },
        Row { name: "uplink_64x16", cell: big, frames: 1 },
    ]
}

/// Feeds one finished frame's planes to the digests: the whole `llr`
/// plane, and the `dl_time` samples of the downlink symbols per
/// `[symbol][antenna]`.
fn eat_planes(fb: &FrameBuffers, downlink: &[usize], llr: &mut Fnv, dl_time: &mut Fnv) {
    // SAFETY (both planes): the frame is done and its processor idle.
    for &v in unsafe { fb.llr.view(None) } {
        llr.eat(&v.to_le_bytes());
    }
    for &symbol in downlink {
        for z in unsafe { fb.dl_time.view(Some(symbol)) } {
            dl_time.eat(&z.re.to_bits().to_le_bytes());
            dl_time.eat(&z.im.to_bits().to_le_bytes());
        }
    }
}

/// Everything a row hashes, `[bits, decode_ok, llr, dl_time]`: inline,
/// and from the threaded engine (2 workers) draining a link that holds
/// the whole run, whose planes are read once the run is over — every
/// row's frames fit the frame window, so each still sits in its slot.
fn digests(row: &Row) -> ([u64; 4], [u64; 4]) {
    let rc = RruConfig { snr_db: 25.0, seed: 21, ..Default::default() };
    let mut rru = RruEmulator::new(row.cell.clone(), rc);
    let per_frame: Vec<_> = (0..row.frames).map(|f| rru.generate_frame(f).0).collect();
    let mut cfg = EngineConfig::new(row.cell.clone(), 2);
    cfg.noise_power = rru.noise_power();
    assert!(row.frames as usize <= cfg.frame_window, "{}: frames outlive their slots", row.name);
    let downlink = row.cell.schedule.downlink_indices();

    let mut inline = InlineProcessor::new(cfg.clone());
    let (mut llr, mut dl_time) = (Fnv::new(), Fnv::new());
    let mut results = Vec::new();
    for (frame, packets) in per_frame.iter().enumerate() {
        results.push(inline.process_frame(frame as u32, packets));
        eat_planes(inline.buffers(frame as u32), &downlink, &mut llr, &mut dl_time);
    }
    let (bits, ok) = decoded_digest(results.iter().map(|r| (&r.decoded, &r.decode_ok)));

    let link = MemFronthaul::preloaded(&per_frame.concat());
    let engine = Engine::new(cfg);
    let threaded = engine.process_fronthaul(&link, row.frames, &AtomicBool::new(true));
    assert!(threaded.iter().all(|r| !r.dropped), "{}: threaded run dropped a frame", row.name);
    let (t_bits, t_ok) = decoded_digest(threaded.iter().map(|r| (&r.decoded, &r.decode_ok)));
    let (mut t_llr, mut t_dl_time) = (Fnv::new(), Fnv::new());
    for frame in 0..row.frames {
        eat_planes(engine.buffers(frame), &downlink, &mut t_llr, &mut t_dl_time);
    }
    ([bits, ok, llr.0, dl_time.0], [t_bits, t_ok, t_llr.0, t_dl_time.0])
}

/// `(row, decoded-bits digest, llr digest, dl_time digest)`, inline.
/// The two uplink rows' llr pins moved when the generator began to pad
/// code blocks by cyclic repetition; no bits or dl_time pin did (both
/// sides' rows are in the pad-repetition log under `results/logs/`).
const PINNED: [(&str, u64, u64, u64); 3] = [
    ("tiny_uplink", 0xd0ba_5546_d37f_5be1, 0x69b8_9d90_2f18_f191, 0xcbf2_9ce4_8422_2325),
    ("tiny_tdd_PUUDD", 0xd0ba_5546_d37f_5be1, 0x2182_475a_4605_6191, 0x09f4_f39c_0ea2_6942),
    ("tiny_downlink_PDD", 0xcbf2_9ce4_8422_2325, 0x1f96_8d47_cc6f_a525, 0xf8cd_a81c_01ad_ef8d),
];

#[test]
fn default_path_digests_are_pinned() {
    for (name, bits, llr, dl_time) in PINNED {
        let row = rows().into_iter().find(|r| r.name == name).unwrap();
        let (inline, threaded) = digests(&row);
        assert_eq!(
            (inline[0], inline[2], inline[3]),
            (bits, llr, dl_time),
            "{name}: (bits, llr, dl_time) = ({:#018x}, {:#018x}, {:#018x})",
            inline[0],
            inline[2],
            inline[3]
        );
        assert_eq!(inline, threaded, "{name}: threaded differs from inline");
    }
}

#[test]
#[ignore = "prints the parent-vs-change log rows; asserts nothing"]
fn dump_bit_identity_rows() {
    for row in rows() {
        let (i, t) = digests(&row);
        println!(
            "{:<26} inline bits={:016x} ok={:016x} llr={:016x} dl_time={:016x} | \
             threaded(2) bits={:016x} ok={:016x} llr={:016x} dl_time={:016x}",
            row.name, i[0], i[1], i[2], i[3], t[0], t[1], t[2], t[3]
        );
    }
}
