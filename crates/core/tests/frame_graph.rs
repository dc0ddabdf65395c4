//! The frame table's dispatch, through its public calls only: pinned
//! across commits, and checked over random completion orders.
//!
//! `dispatch_digests_are_pinned` runs three frames through a table on
//! `PUU`, `PUUDD`, `PDD` and the paper's 64×16 schedule, with
//! `BatchSizes::ones()` and the defaults, the stale precoder off and on,
//! completing work first-in-first-out and last-in-first-out, and hashes
//! (FNV-1a) every emitted message — task, frame, symbol, base, count,
//! stage, in emission order — and every retired frame's `Milestones`. A
//! change meant to dispatch the same messages in the same order leaves
//! every digest as it is.

use agora_core::state::{Arrival, FrameShape, FrameTable, STAGE_STALE_PRECODER};
use agora_core::stats::type_index;
use agora_core::BatchSizes;
use agora_phy::frame::{FrameSchedule, SymbolType};
use agora_phy::CellConfig;
use agora_queue::{Msg, TaskType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// An empty FNV-1a (64 bit) digest.
const FNV: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into `digest`, little-endian bytes.
fn fnv(digest: &mut u64, words: &[u64]) {
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        *digest = (*digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FRAMES: u32 = 3;

/// Packets of `frames` frames in arrival order: every pilot and uplink
/// symbol's antennas, frame by frame, in ascending antenna order or, with
/// `reversed`, descending — which leaves no two arrivals of a symbol
/// consecutive, so every FFT goes out one packet a message.
fn arrivals(
    schedule: &FrameSchedule,
    m: usize,
    frames: u32,
    reversed: bool,
) -> Vec<(u32, usize, usize)> {
    let bearing: Vec<usize> = (0..schedule.len())
        .filter(|&s| matches!(schedule.symbol(s), SymbolType::Pilot | SymbolType::Uplink))
        .collect();
    let antenna = move |a: usize| if reversed { m - 1 - a } else { a };
    (0..frames)
        .flat_map(|f| bearing.iter().flat_map(move |&s| (0..m).map(move |a| (f, s, antenna(a)))))
        .collect()
}

/// One deterministic run on a clock of ticks: each packet arrives after
/// two pending messages completed (so frames overlap), then everything
/// left completes; `lifo` completes the newest message first. Returns
/// `(messages emitted, message digest, milestone digest)`.
fn run(
    s: &FrameSchedule,
    shape: FrameShape,
    b: BatchSizes,
    stale: bool,
    lifo: bool,
) -> (usize, u64, u64) {
    let (emitted, msgs, milestones) = run_arrivals(s, shape, b, stale, lifo, false);
    (emitted.iter().sum(), msgs, milestones)
}

/// [`run`], with each symbol's antennas arriving in descending order
/// when `reversed`, counting the messages emitted per stage (by
/// `type_index`).
fn run_arrivals(
    s: &FrameSchedule,
    shape: FrameShape,
    b: BatchSizes,
    stale: bool,
    lifo: bool,
    reversed: bool,
) -> ([usize; 7], u64, u64) {
    let mut table = FrameTable::new(s.clone(), shape, b, stale, 0);
    let (mut msgs, mut milestones, mut emitted, mut retired) = (FNV, FNV, [0; 7], 0);
    let (mut work, mut out) = (VecDeque::new(), Vec::new());
    let mut packets = arrivals(s, shape.m, FRAMES, reversed).into_iter().peekable();
    for now in 1u64.. {
        // Every third tick a packet arrives while there are any left;
        // every other tick one pending message completes.
        if now % 3 == 0 && packets.peek().is_some() {
            let (frame, symbol, antenna) = packets.next().unwrap();
            let arrival = table.on_packet(frame, symbol, antenna, now, &mut out);
            assert_eq!(arrival, Arrival::Accepted);
        } else if let Some(msg) = if lifo { work.pop_back() } else { work.pop_front() } {
            if table.on_complete(&msg, now, &mut out) {
                let done = table.retire(msg.frame).expect("a finished frame retires");
                let ms = done.milestones.expect("every frame arrived");
                let (first, start) = (ms.first_packet_ns, ms.processing_start_ns);
                fnv(&mut milestones, &[msg.frame as u64, first, start, ms.pilot_done_ns]);
                fnv(&mut milestones, &[ms.zf_done_ns, ms.decode_done_ns, ms.ifft_done_ns]);
                retired += 1;
            }
        } else if packets.peek().is_none() {
            break;
        }
        for m in out.drain(..) {
            emitted[type_index(m.task)] += 1;
            let (task, frame, symbol) = (m.task as u64, m.frame as u64, m.symbol as u64);
            fnv(&mut msgs, &[task, frame, symbol, m.base as u64, m.count as u64, m.stage as u64]);
            work.push_back(m);
        }
    }
    assert_eq!((retired, table.watermark(), table.len()), (FRAMES, FRAMES, 0));
    (emitted, msgs, milestones)
}

/// The four schedules and their shapes: the three small ones on the
/// 8×2 test cell.
fn cases() -> Vec<(&'static str, FrameSchedule, FrameShape)> {
    let tiny = FrameShape::new(&CellConfig::tiny_test(2));
    let paper = CellConfig::emulated_rru(64, 16, 13);
    let parse = |s| FrameSchedule::parse(s).unwrap();
    vec![
        ("PUU", parse("PUU"), tiny),
        ("PUUDD", parse("PUUDD"), tiny),
        ("PDD", parse("PDD"), tiny),
        ("paper_64x16", paper.schedule.clone(), FrameShape::new(&paper)),
    ]
}

/// Per schedule, every combination of batch sizes, stale precoder and
/// completion order folded into one row: `(messages, message digest,
/// milestone digest)`.
fn digests(schedule: &FrameSchedule, shape: FrameShape) -> (usize, u64, u64) {
    let (mut n, mut msgs, mut milestones) = (0, FNV, FNV);
    for batch in [BatchSizes::ones(), BatchSizes::default()] {
        for stale in [false, true] {
            for lifo in [false, true] {
                let (count, m, ms) = run(schedule, shape, batch, stale, lifo);
                n += count;
                fnv(&mut msgs, &[m]);
                fnv(&mut milestones, &[ms]);
            }
        }
    }
    (n, msgs, milestones)
}

/// `(schedule, messages, message digest, milestone digest)`.
const PINNED: [(&str, usize, u64, u64); 4] = [
    ("PUU", 6624, 0x8842_7398_ccec_44ad, 0x2fb8_9816_e8db_035d),
    ("PUUDD", 12864, 0x0eed_66db_da3a_c192, 0x6f1b_c314_f8ef_5815),
    ("PDD", 6624, 0xce5c_dffc_9209_8df2, 0x1271_de33_f8c4_e1d5),
    ("paper_64x16", 212484, 0xa178_60ed_212b_d22d, 0x7e8b_916c_8533_7b59),
];

#[test]
fn dispatch_digests_are_pinned() {
    for ((name, schedule, shape), pinned) in cases().into_iter().zip(PINNED) {
        let (n, msgs, milestones) = digests(&schedule, shape);
        assert_eq!(
            (name, n, msgs, milestones),
            pinned,
            "{name}: ({n}, {msgs:#018x}, {milestones:#018x})"
        );
    }
}

/// The pinned runs take the stale-precoder edge, not only allow it: on
/// both downlink schedules the first-in-first-out runs dispatch
/// differently with it on. (On `PDD`, last-in-first-out runs a frame's
/// ZF only after the next frame's encodes, so there it never fires.)
#[test]
fn pinned_runs_take_the_stale_edge() {
    for (name, schedule, shape) in cases().into_iter().skip(1).take(2) {
        for batch in [BatchSizes::ones(), BatchSizes::default()] {
            let off = run(&schedule, shape, batch, false, false);
            let on = run(&schedule, shape, batch, true, false);
            assert_ne!(off.1, on.1, "{name}: the stale edge never fired");
        }
    }
}

/// The per-stage message bound that sizes the engine's shared task
/// queues is what a frame emits when no two of a symbol's packets arrive
/// in antenna order — every FFT a message of its own — and in-order
/// arrivals emit no more: on every schedule, both batch settings, the
/// stale edge off and on (it replaces precodes, it adds none).
#[test]
fn max_messages_per_frame_is_what_a_frame_emits() {
    for (name, schedule, shape) in cases() {
        for batch in [BatchSizes::ones(), BatchSizes::default()] {
            for stale in [false, true] {
                let table = FrameTable::new(schedule.clone(), shape, batch, stale, 0);
                let bound = table.max_messages_per_frame().map(|n| n * FRAMES as usize);
                let worst = run_arrivals(&schedule, shape, batch, stale, false, true).0;
                assert_eq!(worst, bound, "{name} {batch:?} stale {stale}");
                let in_order = run_arrivals(&schedule, shape, batch, stale, false, false).0;
                let within = in_order.iter().zip(&bound).all(|(n, b)| n <= b);
                assert!(within, "{name} {batch:?} stale {stale}: {in_order:?} > {bound:?}");
            }
        }
    }
}

/// What a random run has seen so far.
#[derive(Default)]
struct Ledger {
    /// Packets arrived, per `(frame, symbol, antenna)`.
    arrived: HashSet<(u32, u32, u32)>,
    /// Tasks completed per `(frame, task, symbol)`.
    completed: HashMap<(u32, TaskType, u32), u32>,
    /// Tasks dispatched, per `(frame, task, symbol, index)`.
    dispatched: HashSet<(u32, TaskType, u32, u32)>,
    retired: HashSet<u32>,
}

impl Ledger {
    /// Whether every predecessor of `m` has completed; `tasks` are per
    /// stage, in `TaskType` order.
    fn ready(&self, sched: &FrameSchedule, tasks: &[u32; 7], m: &Msg) -> bool {
        let (f, s, kind) = (m.frame, m.symbol, sched.symbol(m.symbol as usize));
        let done = |f, t: TaskType, s| self.completed.get(&(f, t, s)) == Some(&tasks[t as usize]);
        let pilots =
            (0..sched.len() as u32).filter(|&p| sched.symbol(p as usize) == SymbolType::Pilot);
        match m.task {
            TaskType::Fft => (m.base..m.base + m.count).all(|a| self.arrived.contains(&(f, s, a))),
            TaskType::Zf => s == 0 && { pilots }.all(|p| done(f, TaskType::Fft, p)),
            TaskType::Demod => {
                kind == SymbolType::Uplink && done(f, TaskType::Fft, s) && done(f, TaskType::Zf, 0)
            }
            TaskType::Decode => kind == SymbolType::Uplink && done(f, TaskType::Demod, s),
            TaskType::Encode => kind == SymbolType::Downlink,
            TaskType::Precode if m.stage == STAGE_STALE_PRECODER => {
                kind == SymbolType::Downlink
                    && done(f, TaskType::Encode, s)
                    && !done(f, TaskType::Zf, 0)
                    && done(f.wrapping_sub(1), TaskType::Zf, 0)
                    && !self.retired.contains(&(f.wrapping_sub(1)))
            }
            TaskType::Precode => {
                kind == SymbolType::Downlink
                    && done(f, TaskType::Encode, s)
                    && done(f, TaskType::Zf, 0)
            }
            TaskType::Ifft => kind == SymbolType::Downlink && done(f, TaskType::Precode, s),
            _ => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arrivals in a random order across three frames, interleaved at
    /// random with completions of random pending messages, on random
    /// antenna counts and FFT run lengths: no message goes out before its
    /// predecessors complete or carries more than its batch, every task
    /// of every stage goes out exactly once, and every frame finishes
    /// once.
    #[test]
    fn random_completion_orders_respect_the_graph(
        seed in any::<u64>(),
        schedule in 0usize..4,
        m in 1usize..9,
        fft in 1usize..6,
        unbatched in any::<bool>(),
        stale in any::<bool>(),
    ) {
        let sched = FrameSchedule::parse(["PUU", "PUUDD", "PDD", "PDUPU"][schedule]).unwrap();
        let shape = FrameShape { m, k: 2, q: 32, zf_groups: 3 };
        let tasks = [m, 3, 32, 2, 2, 32, m].map(|n| n as u32);
        let b = if unbatched {
            BatchSizes { fft, ..BatchSizes::ones() }
        } else {
            BatchSizes { fft, zf: 2, demod: 16, decode: 1, encode: 2, precode: 24, ifft: 3 }
        };
        let steps = [b.fft, b.zf, b.demod, b.decode, b.encode, b.precode, b.ifft].map(|n| n as u32);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut packets = arrivals(&sched, m, FRAMES, false);
        for i in (1..packets.len()).rev() {
            packets.swap(i, rng.gen_range(0..i + 1));
        }
        let mut table = FrameTable::new(sched.clone(), shape, b, stale, 0);
        let mut seen = Ledger::default();
        let (mut pending, mut out): (Vec<Msg>, Vec<Msg>) = (Vec::new(), Vec::new());
        while !packets.is_empty() || !pending.is_empty() {
            if !packets.is_empty() && (pending.is_empty() || rng.gen_bool(0.5)) {
                let (f, s, a) = packets.pop().unwrap();
                seen.arrived.insert((f, s as u32, a as u32));
                prop_assert_eq!(table.on_packet(f, s, a, 0, &mut out), Arrival::Accepted);
            } else {
                let msg = pending.swap_remove(rng.gen_range(0..pending.len()));
                *seen.completed.entry((msg.frame, msg.task, msg.symbol)).or_default() += msg.count;
                if table.on_complete(&msg, 0, &mut out) {
                    prop_assert!(table.retire(msg.frame).is_some(), "frame {} finished", msg.frame);
                    prop_assert!(seen.retired.insert(msg.frame), "frame {} finished twice", msg.frame);
                }
            }
            for msg in out.drain(..) {
                let t = msg.task as usize;
                prop_assert!(seen.ready(&sched, &tasks, &msg), "{:?} before its predecessors", msg);
                prop_assert!((1..=steps[t]).contains(&msg.count), "{:?} over its batch", msg);
                for i in msg.base..msg.base + msg.count {
                    prop_assert!(i < tasks[t], "{:?} out of range", msg);
                    let first = seen.dispatched.insert((msg.frame, msg.task, msg.symbol, i));
                    prop_assert!(first, "{:?} dispatched task {} twice", msg, i);
                }
                pending.push(msg);
            }
        }
        // Per frame the ZF groups, per pilot the FFTs, and per data symbol
        // an FFT or IFFT per antenna, a demod or precode per subcarrier
        // and a decode or encode per user.
        let per_symbol = |s| if sched.symbol(s) == SymbolType::Pilot { m } else { m + 32 + 2 };
        let per_frame = 3 + (0..sched.len()).map(per_symbol).sum::<usize>();
        prop_assert_eq!(seen.dispatched.len(), FRAMES as usize * per_frame, "a task never went out");
        prop_assert_eq!((seen.retired.len(), table.watermark(), table.len()), (3, FRAMES, 0));
    }
}
