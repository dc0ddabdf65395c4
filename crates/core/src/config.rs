//! Engine configuration: the cell, worker count, frame window and batch
//! sizes. The engine runs one pipeline — block layout, streaming stores,
//! Cholesky ZF solve, planned GEMM, fixed-point LDPC decoding,
//! data-parallel workers; Table 4's
//! rows come from the simulator's `SimConfig`, not from switches here.

use agora_phy::CellConfig;

/// Per-block batch sizes (tasks per queue message), Table 3's "Batching
/// size" row.
#[derive(Debug, Clone, Copy)]
pub struct BatchSizes {
    /// FFT tasks (antennas) per message. Paper: 2.
    pub fft: usize,
    /// ZF groups per message. Paper: 3.
    pub zf: usize,
    /// Demodulation subcarriers per message. Paper: 64.
    pub demod: usize,
    /// Decode tasks (users) per message. Paper: 1.
    pub decode: usize,
    /// Encode tasks per message (downlink).
    pub encode: usize,
    /// Precoding subcarriers per message (downlink).
    pub precode: usize,
    /// IFFT tasks (antennas) per message (downlink). Each task precodes
    /// its antennas' rows itself, one GEMM of all its rows per block, so
    /// a larger batch shares each block's operands between more rows.
    pub ifft: usize,
}

impl Default for BatchSizes {
    fn default() -> Self {
        Self { fft: 2, zf: 3, demod: 64, decode: 1, encode: 1, precode: 64, ifft: 8 }
    }
}

impl BatchSizes {
    /// All batch sizes forced to one (the Table 4 "batching disabled"
    /// configuration; `clamp_batches` then raises demod and precode to
    /// one block, their unit of work).
    pub fn ones() -> Self {
        Self { fft: 1, zf: 1, demod: 1, decode: 1, encode: 1, precode: 1, ifft: 1 }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The cell this engine serves.
    pub cell: CellConfig,
    /// Number of worker threads (excluding manager and network threads).
    pub num_workers: usize,
    /// Frames that may be in flight simultaneously (buffer window). The
    /// paper provisions "sufficient shared memory buffer space for tens
    /// of frames to handle performance jitter".
    pub frame_window: usize,
    /// Per-block batch sizes.
    pub batch: BatchSizes,
    /// Subcarriers per demodulation kernel call (cache-line unit). The
    /// paper uses 8 (64 bytes / 8-byte sample).
    pub demod_block: usize,
    /// Channel noise power assumed by the soft demodulator (per active
    /// subcarrier, post-channel). Receivers estimate this from pilots;
    /// experiments set it from the generator's ground truth.
    pub noise_power: f32,
    /// Per-frame processing deadline. When set, a frame whose first
    /// packet arrived more than this many nanoseconds ago is abandoned:
    /// its in-flight tasks are flushed, its state freed, and a result
    /// with `dropped: true` is emitted so the pipeline keeps pace under
    /// fronthaul loss ("Agora drops the frame and continues", §6).
    /// `None` runs no watchdog: an incomplete frame is given up only
    /// once nothing has moved for a while and either the input has ended
    /// or a full window of later frames waits behind it.
    pub frame_deadline_ns: Option<u64>,
    /// Packets the network thread requests per `recv_batch` poll when
    /// driven from a [`agora_fronthaul::Fronthaul`] link (one `recvmmsg`
    /// syscall drains up to this many).
    pub rx_batch: usize,
    /// Pin the manager, network, and worker threads to distinct CPUs via
    /// `sched_setaffinity` (best-effort: silently unpinned where the
    /// syscall is unavailable or refused). Off by default so tests and
    /// benches on shared machines don't fight the OS scheduler. Ignored
    /// for a cell of a deployment, like `num_workers`: the deployment's
    /// own `pin_cores` decides for its shared threads.
    pub pin_cores: bool,
}

impl EngineConfig {
    /// A sensible default for a cell: paper batch sizes, 4-frame window.
    pub fn new(cell: CellConfig, num_workers: usize) -> Self {
        let mut cfg = Self {
            cell,
            num_workers,
            frame_window: 4,
            batch: BatchSizes::default(),
            demod_block: 8,
            noise_power: 0.05,
            frame_deadline_ns: None,
            rx_batch: 32,
            pin_cores: false,
        };
        cfg.clamp_batches();
        cfg
    }

    /// Clamps batch sizes to the actual task counts and to whole demod
    /// blocks.
    pub fn clamp_batches(&mut self) {
        let groups = self.cell.num_zf_groups().max(1);
        self.batch.zf = self.batch.zf.clamp(1, groups);
        self.batch.fft = self.batch.fft.clamp(1, self.cell.num_antennas);
        self.batch.ifft = self.batch.ifft.clamp(1, self.cell.num_antennas);
        self.batch.decode = self.batch.decode.clamp(1, self.cell.num_users);
        // The unit of demod and precode work is one kernel block: a
        // message is whole blocks, never less than one, so it never
        // straddles a partially-owned cache line.
        let demod = self.batch.demod.min(self.cell.num_data_sc).max(self.demod_block);
        self.batch.demod = demod - demod % self.demod_block;
        let precode = self.batch.precode.min(self.cell.num_data_sc).max(self.demod_block);
        self.batch.precode = precode - precode % self.demod_block;
    }

    /// Sanity checks (in addition to `CellConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        self.cell.validate()?;
        if self.num_workers == 0 {
            return Err("need at least one worker".into());
        }
        if self.frame_window < 2 {
            return Err("frame window must be at least 2".into());
        }
        if !self.demod_block.is_power_of_two() {
            return Err("demod block must be a power of two".into());
        }
        if !self.cell.num_data_sc.is_multiple_of(self.demod_block) {
            return Err(format!(
                "demod block {} must divide data subcarriers {}",
                self.demod_block, self.cell.num_data_sc
            ));
        }
        if !self.cell.zf_group.is_multiple_of(self.demod_block) {
            return Err("ZF group must be a multiple of the demod block".into());
        }
        let block_bits = self.demod_block * self.cell.modulation.bits_per_symbol();
        if !block_bits.is_multiple_of(8) {
            return Err(format!(
                "a demod block carries {block_bits} coded bits; the packed downlink bits \
                 need whole bytes"
            ));
        }
        if !self.batch.demod.is_multiple_of(self.demod_block) {
            return Err(format!(
                "demod batch {} must be a multiple of the demod block {}",
                self.batch.demod, self.demod_block
            ));
        }
        if !self.batch.precode.is_multiple_of(self.demod_block) {
            return Err(format!(
                "precode batch {} must be a multiple of the demod block {}",
                self.batch.precode, self.demod_block
            ));
        }
        if self.rx_batch == 0 {
            return Err("rx batch must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_phy::CellConfig;

    #[test]
    fn default_batches_match_paper() {
        let b = BatchSizes::default();
        assert_eq!((b.fft, b.zf, b.demod, b.decode), (2, 3, 64, 1));
    }

    #[test]
    fn paper_config_validates() {
        let cfg = EngineConfig::new(CellConfig::emulated_rru(64, 16, 13), 26);
        cfg.validate().expect("paper engine config must validate");
    }

    #[test]
    fn tiny_config_validates() {
        let cfg = EngineConfig::new(CellConfig::tiny_test(2), 3);
        cfg.validate().expect("tiny engine config must validate");
    }

    #[test]
    fn unit_batches_clamp_to_one_block() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 2);
        cfg.batch = BatchSizes::ones();
        cfg.clamp_batches();
        assert_eq!(cfg.batch.fft, 1);
        assert_eq!(cfg.batch.demod, cfg.demod_block, "one block is the unit of demod work");
        assert_eq!(cfg.batch.precode, cfg.demod_block, "precoding works in whole blocks");
        cfg.validate().expect("unit batches must validate");
    }

    #[test]
    fn partial_block_demod_batch_rejected() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 2);
        cfg.batch.demod = cfg.demod_block + 1;
        assert!(cfg.validate().is_err());
        cfg.batch.demod = 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn partial_block_precode_batch_rejected_and_clamped() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 2);
        for bad in [1, cfg.demod_block + 1] {
            cfg.batch.precode = bad;
            assert!(cfg.validate().is_err(), "precode batch {bad}");
        }
        cfg.batch.precode = 3 * cfg.demod_block + 5;
        cfg.clamp_batches();
        assert_eq!(cfg.batch.precode, 3 * cfg.demod_block);
        cfg.validate().expect("a clamped precode batch validates");
    }

    #[test]
    fn batches_clamped_to_task_counts() {
        // Tiny cell: 8 antennas, 240 subcarriers, 15 ZF groups.
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 2);
        cfg.batch.fft = 100;
        cfg.batch.ifft = 100;
        cfg.batch.zf = 100;
        cfg.clamp_batches();
        assert_eq!(cfg.batch.fft, 8);
        assert_eq!(cfg.batch.ifft, 8);
        assert_eq!(cfg.batch.zf, 15);
    }

    #[test]
    fn invalid_worker_count_rejected() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 1);
        cfg.num_workers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_rx_batch_rejected() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 1);
        cfg.rx_batch = 0;
        assert!(cfg.validate().is_err());
    }

    /// A block's coded bits must be whole bytes of the packed `dl_bits`
    /// row: 4 QPSK subcarriers are a byte, 2 are half of one.
    #[test]
    fn demod_block_of_part_of_a_byte_rejected() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 2);
        for (block, whole) in [(4, true), (2, false)] {
            cfg.demod_block = block;
            cfg.clamp_batches();
            match whole {
                true => cfg.validate().expect("4 QPSK subcarriers are one byte"),
                false => assert!(cfg.validate().unwrap_err().contains("whole bytes")),
            }
        }
    }

    #[test]
    fn demod_batch_stays_block_aligned() {
        let mut cfg = EngineConfig::new(CellConfig::tiny_test(2), 2);
        cfg.batch.demod = 63;
        cfg.clamp_batches();
        assert_eq!(cfg.batch.demod % cfg.demod_block, 0);
    }
}
