//! Core allocation for the simulator's pipeline-parallel baseline (§5.4)
//! and the deployment supervisor's shares-over-cores split.
//!
//! In the BigStation-style design every block owns a fixed, dedicated
//! group of cores, so someone must decide the group sizes. The paper
//! uses "a combination of empirical data and mathematical analysis to
//! find the allocation of cores to blocks that minimizes the frame
//! latency", constrained by "each block must get enough cores to finish
//! within a frame's time budget". That is exactly what [`allocate`]
//! does: start from the per-block minimum `ceil(work / frame_time)`,
//! then hand out the remaining cores to whichever block currently has
//! the longest per-core completion time.

use agora_queue::TaskType;

/// Measured (or simulated) per-frame work for one block.
#[derive(Debug, Clone, Copy)]
pub struct BlockWork {
    /// The block's task type.
    pub task: TaskType,
    /// Total compute time for all of the block's tasks in one frame, in
    /// nanoseconds (cumulated over tasks, not wall clock).
    pub total_ns: u64,
    /// Number of parallel tasks in the block per frame — an upper bound
    /// on how many cores the block can use at once.
    pub max_parallelism: usize,
}

/// Allocation failure reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Even one core per block doesn't fit: need at least `needed`
    /// workers to sustain the frame rate.
    NotEnoughCores {
        /// Minimum worker count that satisfies the rate constraint.
        needed: usize,
    },
}

impl core::fmt::Display for AllocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocError::NotEnoughCores { needed } => {
                write!(f, "pipeline allocation needs at least {needed} cores")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// One share of work competing for the core budget — a task block inside
/// a cell (the §5.4 pipeline variant) or a whole cell inside a server
/// (the deployment supervisor). The solver is the same either way.
#[derive(Debug, Clone, Copy)]
pub struct ShareWork {
    /// Total compute time per frame (or epoch), in nanoseconds.
    pub total_ns: u64,
    /// Upper bound on how many cores this share can use at once.
    pub max_parallelism: usize,
}

/// Computes a cores-per-share allocation — the generalized §5.4 solver.
///
/// Returns `cores[i]` aligned with `work[i]`. Every share gets at least
/// `max(min_cores, ceil(total_ns / frame_ns))` cores (the keep-up
/// constraint); remaining cores go to the share with the largest
/// `total_ns / cores` (the latency-minimising greedy step), capped by
/// the share's parallelism.
pub fn allocate_weighted(
    work: &[ShareWork],
    num_workers: usize,
    frame_ns: u64,
    min_cores: usize,
) -> Result<Vec<usize>, AllocError> {
    assert!(frame_ns > 0);
    assert!(min_cores > 0);
    let mut cores: Vec<usize> =
        work.iter().map(|w| (w.total_ns.div_ceil(frame_ns) as usize).max(min_cores)).collect();
    let needed: usize = cores.iter().sum();
    if needed > num_workers {
        return Err(AllocError::NotEnoughCores { needed });
    }
    let mut spare = num_workers - needed;
    while spare > 0 {
        // Give the next core to the share with the worst per-core time
        // that can still use another core.
        let candidate =
            (0..work.len()).filter(|&i| cores[i] < work[i].max_parallelism).max_by(|&a, &b| {
                let ta = work[a].total_ns as f64 / cores[a] as f64;
                let tb = work[b].total_ns as f64 / cores[b] as f64;
                ta.partial_cmp(&tb).unwrap()
            });
        match candidate {
            Some(i) => cores[i] += 1,
            None => break, // every share saturated its parallelism
        }
        spare -= 1;
    }
    Ok(cores)
}

/// Computes a static cores-per-block allocation for the pipeline
/// variant. Thin wrapper over [`allocate_weighted`] with a one-core
/// floor per block.
pub fn allocate_cores(
    blocks: &[BlockWork],
    num_workers: usize,
    frame_ns: u64,
) -> Result<Vec<usize>, AllocError> {
    let work: Vec<ShareWork> = blocks
        .iter()
        .map(|b| ShareWork { total_ns: b.total_ns, max_parallelism: b.max_parallelism })
        .collect();
    allocate_weighted(&work, num_workers, frame_ns, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blocks() -> Vec<BlockWork> {
        vec![
            BlockWork { task: TaskType::Fft, total_ns: 2_450_000, max_parallelism: 896 },
            BlockWork { task: TaskType::Zf, total_ns: 1_590_000, max_parallelism: 75 },
            BlockWork { task: TaskType::Demod, total_ns: 2_920_000, max_parallelism: 15_600 },
            BlockWork { task: TaskType::Decode, total_ns: 9_670_000, max_parallelism: 208 },
        ]
    }

    #[test]
    fn paper_uplink_minimum_cores() {
        // With the paper's Table 3 totals and a 1 ms frame, the rate
        // constraint alone needs 3 + 2 + 3 + 10 = 18 cores.
        let cores = allocate_cores(&blocks(), 26, 1_000_000).unwrap();
        assert_eq!(cores.len(), 4);
        assert!(cores[0] >= 3 && cores[1] >= 2 && cores[2] >= 3 && cores[3] >= 10);
        assert_eq!(cores.iter().sum::<usize>(), 26);
        // Decode, the heaviest block, receives the most cores.
        assert!(cores[3] >= *cores.iter().max().unwrap() - 1);
    }

    #[test]
    fn fails_when_rate_unsustainable() {
        let err = allocate_cores(&blocks(), 10, 1_000_000).unwrap_err();
        match err {
            AllocError::NotEnoughCores { needed } => assert!(needed > 10),
        }
    }

    #[test]
    fn spare_cores_go_to_slowest_block() {
        let b = vec![
            BlockWork { task: TaskType::Fft, total_ns: 100, max_parallelism: 100 },
            BlockWork { task: TaskType::Decode, total_ns: 10_000, max_parallelism: 100 },
        ];
        let cores = allocate_cores(&b, 10, 1_000_000).unwrap();
        assert_eq!(cores.iter().sum::<usize>(), 10);
        assert!(cores[1] > cores[0], "decode must dominate: {cores:?}");
    }

    #[test]
    fn parallelism_caps_respected() {
        let b = vec![
            BlockWork { task: TaskType::Zf, total_ns: 10_000, max_parallelism: 2 },
            BlockWork { task: TaskType::Decode, total_ns: 10_000, max_parallelism: 3 },
        ];
        let cores = allocate_cores(&b, 16, 1_000_000).unwrap();
        assert!(cores[0] <= 2 && cores[1] <= 3, "{cores:?}");
    }

    #[test]
    fn all_blocks_saturated_leaves_spare_cores_unassigned() {
        // Every block capped at its parallelism with cores to spare: the
        // greedy loop must stop at the caps, not spin or overassign.
        let b = vec![
            BlockWork { task: TaskType::Fft, total_ns: 5_000, max_parallelism: 2 },
            BlockWork { task: TaskType::Zf, total_ns: 7_000, max_parallelism: 1 },
            BlockWork { task: TaskType::Decode, total_ns: 9_000, max_parallelism: 3 },
        ];
        let cores = allocate_cores(&b, 32, 1_000_000).unwrap();
        assert_eq!(cores, vec![2, 1, 3]);
        assert_eq!(cores.iter().sum::<usize>(), 6, "26 spare cores stay unassigned");
    }

    #[test]
    fn single_block_gets_everything_up_to_its_cap() {
        let b = vec![BlockWork { task: TaskType::Decode, total_ns: 50_000, max_parallelism: 64 }];
        // Cap above the worker count: the block takes the whole budget.
        assert_eq!(allocate_cores(&b, 8, 1_000_000).unwrap(), vec![8]);
        // Cap below the worker count: the block stops at the cap.
        let b = vec![BlockWork { task: TaskType::Decode, total_ns: 50_000, max_parallelism: 5 }];
        assert_eq!(allocate_cores(&b, 8, 1_000_000).unwrap(), vec![5]);
        // Rate-constrained minimum still applies with one block.
        let b =
            vec![BlockWork { task: TaskType::Decode, total_ns: 3_500_000, max_parallelism: 64 }];
        let cores = allocate_cores(&b, 8, 1_000_000).unwrap();
        assert!(cores[0] >= 4, "keep-up needs ceil(3.5) = 4 cores: {cores:?}");
    }

    #[test]
    fn weighted_minimum_floor_applies_per_share() {
        let work = vec![
            ShareWork { total_ns: 0, max_parallelism: 8 },
            ShareWork { total_ns: 1_000, max_parallelism: 8 },
        ];
        // min_cores = 2: even the idle share keeps two cores.
        let cores = allocate_weighted(&work, 8, u64::MAX, 2).unwrap();
        assert!(cores[0] >= 2 && cores[1] >= 2, "{cores:?}");
        assert_eq!(cores.iter().sum::<usize>(), 8);
        // Budget below the floors is an error naming the true need.
        let err = allocate_weighted(&work, 3, u64::MAX, 2).unwrap_err();
        assert_eq!(err, AllocError::NotEnoughCores { needed: 4 });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Keep-up constraint: wherever the parallelism cap allows it,
        /// every returned allocation satisfies `total_ns / cores <=
        /// frame_ns` — i.e. `cores >= ceil(total_ns / frame_ns)`.
        #[test]
        fn keep_up_constraint_holds(
            n_blocks in 1usize..6,
            seed in 0u64..4096,
            frame_ns in 100_000u64..2_000_000,
            extra in 0usize..24,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s >> 33
            };
            let blocks: Vec<BlockWork> = (0..n_blocks)
                .map(|_| BlockWork {
                    task: TaskType::Decode,
                    total_ns: next() % 10_000_000,
                    max_parallelism: 1 + (next() % 32) as usize,
                })
                .collect();
            let minimum: usize = blocks
                .iter()
                .map(|b| b.total_ns.div_ceil(frame_ns).max(1) as usize)
                .sum();
            let num_workers = minimum + extra;
            let cores = allocate_cores(&blocks, num_workers, frame_ns).unwrap();
            prop_assert_eq!(cores.len(), blocks.len());
            let mut assigned = 0usize;
            for (b, &c) in blocks.iter().zip(&cores) {
                let need = b.total_ns.div_ceil(frame_ns).max(1) as usize;
                prop_assert!(
                    c >= need,
                    "block needs {} cores for keep-up, got {} (frame {} ns, work {} ns)",
                    need, c, frame_ns, b.total_ns
                );
                assigned += c;
            }
            prop_assert!(assigned <= num_workers, "over-assigned: {} > {}", assigned, num_workers);
        }
    }
}
