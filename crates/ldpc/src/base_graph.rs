//! QC-LDPC base graphs with the 5G NR structure.
//!
//! 3GPP TS 38.212 defines two base graphs: BG1 (46 x 68, 22 information
//! columns) for large blocks and high rates, BG2 (42 x 52, 10 information
//! columns) for small blocks and low rates. Both share the structure
//!
//! ```text
//!        kb info cols   4 core parity    extension parity
//!      +--------------+---------------+------------------+
//!   4  |      A       |  B (double    |        0         |   core rows
//!      |              |   diagonal)   |                  |
//!      +--------------+---------------+------------------+
//! m-4  |      C       |      D        |        I         |   extension rows
//!      +--------------+---------------+------------------+
//! ```
//!
//! where every nonzero entry is a cyclically shifted `Z x Z` identity. The
//! first two information columns are high-degree and always punctured
//! (never transmitted). The `B` core enables linear-time encoding.
//!
//! **Substitution note (see DESIGN.md §3):** the exact 3GPP shift tables
//! are not reproduced; shifts are drawn from a fixed deterministic
//! generator with a 4-cycle-avoidance pass for the evaluation lifting
//! sizes (104, 384). Dimensions, degree profile, puncturing, and the
//! encoding core match the standard, so the decoder cost model and BER
//! trends match the paper's.

use crate::lifting::MAX_Z;
use std::sync::OnceLock;

/// Which 5G NR base graph shape to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseGraphId {
    /// 46 x 68, 22 information columns — large blocks (the paper's
    /// evaluation uses BG1, "the most computationally demanding").
    Bg1,
    /// 42 x 52, 10 information columns — small blocks.
    Bg2,
}

/// One nonzero block of the base matrix: a `Z x Z` identity cyclically
/// shifted by `shift mod Z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseEntry {
    /// Base row (check-node group).
    pub row: u16,
    /// Base column (variable-node group).
    pub col: u16,
    /// Shift coefficient `V`; the effective shift for lifting size `Z` is
    /// `V mod Z`, as in TS 38.212.
    pub shift: u16,
}

/// A QC-LDPC base graph: dimensions plus the sparse list of shifted
/// identity blocks, with a per-row index for the decoders.
#[derive(Debug)]
pub struct BaseGraph {
    id: BaseGraphId,
    rows: usize,
    cols: usize,
    kb: usize,
    entries: Vec<BaseEntry>,
    /// `row_start[r]..row_start[r+1]` indexes `entries` for base row `r`.
    row_start: Vec<usize>,
}

/// Number of core (double-diagonal) parity rows/columns.
pub const CORE_ROWS: usize = 4;

impl BaseGraph {
    /// Returns the shared instance for a base graph id (built once).
    pub fn get(id: BaseGraphId) -> &'static BaseGraph {
        static BG1: OnceLock<BaseGraph> = OnceLock::new();
        static BG2: OnceLock<BaseGraph> = OnceLock::new();
        match id {
            BaseGraphId::Bg1 => BG1.get_or_init(|| BaseGraph::build(BaseGraphId::Bg1)),
            BaseGraphId::Bg2 => BG2.get_or_init(|| BaseGraph::build(BaseGraphId::Bg2)),
        }
    }

    /// The id this graph was built for.
    pub fn id(&self) -> BaseGraphId {
        self.id
    }

    /// Number of base rows (parity-check groups).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of base columns (variable groups); codeword length is
    /// `cols * Z` before puncturing.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of information columns (`kb`); payload is `kb * Z` bits.
    pub fn info_cols(&self) -> usize {
        self.kb
    }

    /// All nonzero entries, sorted by `(row, col)`.
    pub fn entries(&self) -> &[BaseEntry] {
        &self.entries
    }

    /// Index range of one base row within [`Self::entries`].
    pub fn row_range(&self, row: usize) -> core::ops::Range<usize> {
        self.row_start[row]..self.row_start[row + 1]
    }

    /// Entries of one base row.
    pub fn row_entries(&self, row: usize) -> &[BaseEntry] {
        &self.entries[self.row_range(row)]
    }

    fn build(id: BaseGraphId) -> BaseGraph {
        let (rows, kb) = match id {
            BaseGraphId::Bg1 => (46usize, 22usize),
            BaseGraphId::Bg2 => (42usize, 10usize),
        };
        let cols = kb + rows;
        let mut rng = SplitMix::new(match id {
            BaseGraphId::Bg1 => 0xA60A_2020_0001,
            BaseGraphId::Bg2 => 0xA60A_2020_0002,
        });

        // 1. Choose the support (which blocks are nonzero).
        let mut support: Vec<Vec<u16>> = vec![Vec::new(); rows]; // cols per row
        for (r, row_support) in support.iter_mut().enumerate().take(CORE_ROWS) {
            // Core rows: high-degree. Columns 0 and 1 always participate;
            // the rest of the info columns join with high probability,
            // mirroring BG1's dense top rows.
            for c in 0..kb {
                if c < 2 || rng.chance(3, 4) {
                    row_support.push(c as u16);
                }
            }
            // Core parity double diagonal (B block):
            //   row0: p1 (shift 1), p2
            //   row1: p1, p2, p3
            //   row2:         p3, p4
            //   row3: p1,         p4
            let p = kb as u16;
            match r {
                0 => row_support.extend_from_slice(&[p, p + 1]),
                1 => row_support.extend_from_slice(&[p, p + 1, p + 2]),
                2 => row_support.extend_from_slice(&[p + 2, p + 3]),
                3 => row_support.extend_from_slice(&[p, p + 3]),
                _ => unreachable!(),
            }
        }
        for (r, row_support) in support.iter_mut().enumerate().skip(CORE_ROWS) {
            // Extension rows: column 0 always (high-degree punctured
            // column), column 1 on alternating rows, a few mid columns,
            // occasionally a core parity column (the D block), and the
            // identity column for this row.
            row_support.push(0);
            if r % 2 == 1 {
                row_support.push(1);
            }
            let extra = 3 + (rng.next_u64() % 2) as usize; // 3..=4 info cols
            let mut picked = 0;
            let mut guard = 0;
            while picked < extra && guard < 100 {
                guard += 1;
                let c = 2 + (rng.next_u64() as usize % (kb - 2));
                if !row_support.contains(&(c as u16)) {
                    row_support.push(c as u16);
                    picked += 1;
                }
            }
            if rng.chance(1, 2) {
                let p = (kb + (r % CORE_ROWS)) as u16;
                if !row_support.contains(&p) {
                    row_support.push(p);
                }
            }
            row_support.push((kb + r) as u16); // identity parity column
        }

        // 2. Assign shift coefficients, redrawing to avoid 4-cycles at the
        // evaluation lifting sizes. Shift bookkeeping per (row, col).
        const CHECK_Z: [usize; 3] = [104, 384, 52];
        let mut entries: Vec<BaseEntry> = Vec::new();
        for (r, cols_in_row) in support.iter().enumerate() {
            let mut sorted = cols_in_row.clone();
            sorted.sort_unstable();
            for &c in &sorted {
                let shift = if r < CORE_ROWS && c as usize >= kb {
                    // Fixed core-parity shifts: shift 1 on (row 0, p1) and 0
                    // elsewhere — this is what makes encoding linear-time.
                    if r == 0 && c as usize == kb {
                        1
                    } else {
                        0
                    }
                } else if r >= CORE_ROWS && c as usize == kb + r {
                    0 // identity block of the extension parity
                } else {
                    // Draw a shift avoiding 4-cycles with already-placed
                    // entries at the checked lifting sizes.
                    let mut v = (rng.next_u64() % MAX_Z as u64) as u16;
                    for _attempt in 0..64 {
                        if !creates_4_cycle(&entries, r as u16, c, v, &CHECK_Z) {
                            break;
                        }
                        v = (rng.next_u64() % MAX_Z as u64) as u16;
                    }
                    v
                };
                entries.push(BaseEntry { row: r as u16, col: c, shift });
            }
        }

        // 3. Repair pass: draw-time checks cannot see fixed-shift entries
        // that are placed later in the same row (core parity columns), so
        // sweep for residual 4-cycles and redraw one drawn entry of each.
        repair_4_cycles(&mut entries, kb, &CHECK_Z, &mut rng);

        // 4. Build the row index.
        let mut row_start = vec![0usize; rows + 1];
        for e in &entries {
            row_start[e.row as usize + 1] += 1;
        }
        for r in 0..rows {
            row_start[r + 1] += row_start[r];
        }

        BaseGraph { id, rows, cols, kb, entries, row_start }
    }
}

/// Finds residual 4-cycles at the checked lifting sizes and redraws the
/// shift of one *redrawable* participating entry (information columns, or
/// core-parity columns inside extension rows — never the fixed encoding
/// core or the identity diagonal). Iterates until clean or a generous
/// attempt budget runs out; the budget is never hit for the shipped seeds,
/// and the test suite asserts zero cycles.
fn repair_4_cycles(entries: &mut [BaseEntry], kb: usize, zs: &[usize], rng: &mut SplitMix) {
    'outer: for _pass in 0..1000 {
        // Locate the first 4-cycle: rows (r1, r2), shared cols (c1, c2).
        for a in 0..entries.len() {
            for b in a + 1..entries.len() {
                let (e1, e2) = (entries[a], entries[b]);
                if e1.row != e2.row || e1.col == e2.col {
                    continue;
                }
                // Find a second row sharing both columns.
                for c in 0..entries.len() {
                    let f1 = entries[c];
                    if f1.row == e1.row || f1.col != e1.col {
                        continue;
                    }
                    if let Some(d) =
                        entries.iter().position(|f2| f2.row == f1.row && f2.col == e2.col)
                    {
                        let f2 = entries[d];
                        let cyclic = zs.iter().any(|&z| {
                            let zi = z as i64;
                            let delta = (e1.shift as i64 % zi - f1.shift as i64 % zi)
                                - (e2.shift as i64 % zi - f2.shift as i64 % zi);
                            delta.rem_euclid(zi) == 0
                        });
                        if !cyclic {
                            continue;
                        }
                        // Redraw a participating entry whose shift is free.
                        let fixed = |e: &BaseEntry| {
                            let core_parity = e.col as usize >= kb && (e.row as usize) < CORE_ROWS;
                            let identity = e.col as usize >= kb + CORE_ROWS;
                            core_parity || identity
                        };
                        let victim = [a, b, c, d]
                            .into_iter()
                            .find(|&i| !fixed(&entries[i]))
                            .expect("4-cycle with all shifts fixed is structurally impossible");
                        // Redraw until the new shift closes no cycle at any
                        // checked size (validated against *all* entries,
                        // fixed ones included).
                        for _ in 0..256 {
                            entries[victim].shift = (rng.next_u64() % MAX_Z as u64) as u16;
                            if !participates_in_4_cycle(entries, victim, zs) {
                                break;
                            }
                        }
                        continue 'outer;
                    }
                }
            }
        }
        return; // no cycle found
    }
}

/// True if `entries[idx]` participates in any 4-cycle at any checked
/// lifting size, considering every other entry (fixed or drawn).
fn participates_in_4_cycle(entries: &[BaseEntry], idx: usize, zs: &[usize]) -> bool {
    let e1 = entries[idx];
    for e2 in entries.iter().filter(|e| e.row == e1.row && e.col != e1.col) {
        for f1 in entries.iter().filter(|f| f.row != e1.row && f.col == e1.col) {
            if let Some(f2) = entries.iter().find(|f| f.row == f1.row && f.col == e2.col) {
                for &z in zs {
                    let zi = z as i64;
                    let delta = (e1.shift as i64 % zi - f1.shift as i64 % zi)
                        - (e2.shift as i64 % zi - f2.shift as i64 % zi);
                    if delta.rem_euclid(zi) == 0 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Returns true if placing `(row, col, shift)` would close a 4-cycle with
/// existing entries at any of the checked lifting sizes.
fn creates_4_cycle(entries: &[BaseEntry], row: u16, col: u16, shift: u16, zs: &[usize]) -> bool {
    // A 4-cycle uses rows (r0, row) and columns (c0, col) with all four
    // blocks present: (r0,c0) (r0,col) (row,c0) (row,col=candidate).
    for e_same_col in entries.iter().filter(|e| e.col == col && e.row != row) {
        let r0 = e_same_col.row;
        for e_r0 in entries.iter().filter(|e| e.row == r0 && e.col != col) {
            let c0 = e_r0.col;
            if let Some(e_row_c0) = entries.iter().find(|e| e.row == row && e.col == c0) {
                for &z in zs {
                    let d = (e_r0.shift as i64 % z as i64 - e_same_col.shift as i64 % z as i64)
                        - (e_row_c0.shift as i64 % z as i64 - shift as i64 % z as i64);
                    if d.rem_euclid(z as i64) == 0 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// SplitMix64: tiny deterministic generator for graph construction only.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BaseGraph {
        /// Counts 4-cycles in the lifted graph for size `z`; the
        /// standard-defined codes are 4-cycle-free for their designed sizes.
        fn count_4_cycles(&self, z: usize) -> usize {
            let mut count = 0;
            // For every pair of rows and pair of shared columns, a 4-cycle
            // exists iff the alternating shift sum is 0 mod z.
            for r1 in 0..self.rows {
                for r2 in r1 + 1..self.rows {
                    let e1 = self.row_entries(r1);
                    let e2 = self.row_entries(r2);
                    // Collect shared columns via merge (entries sorted by col).
                    let mut shared: Vec<(i64, i64)> = Vec::new();
                    let (mut i, mut j) = (0, 0);
                    while i < e1.len() && j < e2.len() {
                        match e1[i].col.cmp(&e2[j].col) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                shared.push((
                                    (e1[i].shift as usize % z) as i64,
                                    (e2[j].shift as usize % z) as i64,
                                ));
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    for a in 0..shared.len() {
                        for b in a + 1..shared.len() {
                            let d = (shared[a].0 - shared[a].1) - (shared[b].0 - shared[b].1);
                            if d.rem_euclid(z as i64) == 0 {
                                count += 1;
                            }
                        }
                    }
                }
            }
            count
        }
    }

    #[test]
    fn bg1_dimensions_match_standard() {
        let bg = BaseGraph::get(BaseGraphId::Bg1);
        assert_eq!(bg.rows(), 46);
        assert_eq!(bg.cols(), 68);
        assert_eq!(bg.info_cols(), 22);
    }

    #[test]
    fn bg2_dimensions_match_standard() {
        let bg = BaseGraph::get(BaseGraphId::Bg2);
        assert_eq!(bg.rows(), 42);
        assert_eq!(bg.cols(), 52);
        assert_eq!(bg.info_cols(), 10);
    }

    #[test]
    fn construction_is_deterministic() {
        let a = BaseGraph::build(BaseGraphId::Bg1);
        let b = BaseGraph::build(BaseGraphId::Bg1);
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn core_parity_structure_enables_linear_encoding() {
        for id in [BaseGraphId::Bg1, BaseGraphId::Bg2] {
            let bg = BaseGraph::get(id);
            let kb = bg.info_cols() as u16;
            let parity_cols = |r: usize| -> Vec<(u16, u16)> {
                bg.row_entries(r)
                    .iter()
                    .filter(|e| e.col >= kb)
                    .map(|e| (e.col - kb, e.shift))
                    .collect()
            };
            assert_eq!(parity_cols(0), vec![(0, 1), (1, 0)]);
            assert_eq!(parity_cols(1), vec![(0, 0), (1, 0), (2, 0)]);
            assert_eq!(parity_cols(2), vec![(2, 0), (3, 0)]);
            assert_eq!(parity_cols(3), vec![(0, 0), (3, 0)]);
        }
    }

    #[test]
    fn extension_rows_have_identity_diagonal() {
        let bg = BaseGraph::get(BaseGraphId::Bg1);
        let kb = bg.info_cols();
        for r in CORE_ROWS..bg.rows() {
            let diag = bg
                .row_entries(r)
                .iter()
                .find(|e| e.col as usize == kb + r)
                .expect("missing identity block");
            assert_eq!(diag.shift, 0);
            // No entries beyond the diagonal (lower-triangular extension).
            assert!(bg.row_entries(r).iter().all(|e| (e.col as usize) <= kb + r));
        }
    }

    #[test]
    fn punctured_columns_are_high_degree() {
        let bg = BaseGraph::get(BaseGraphId::Bg1);
        let deg = |c: u16| -> usize { bg.entries().iter().filter(|e| e.col == c).count() };
        let avg_info: f64 =
            (2..bg.info_cols() as u16).map(deg).sum::<usize>() as f64 / (bg.info_cols() - 2) as f64;
        assert!(deg(0) as f64 > 3.0 * avg_info, "col 0 degree {} vs avg {avg_info}", deg(0));
        assert!(deg(1) as f64 > 1.5 * avg_info, "col 1 degree {} vs avg {avg_info}", deg(1));
    }

    #[test]
    fn entries_sorted_and_indexed() {
        let bg = BaseGraph::get(BaseGraphId::Bg1);
        for r in 0..bg.rows() {
            let es = bg.row_entries(r);
            assert!(!es.is_empty());
            assert!(es.iter().all(|e| e.row as usize == r));
            assert!(es.windows(2).all(|w| w[0].col < w[1].col));
        }
    }

    #[test]
    fn no_4_cycles_at_evaluation_sizes() {
        for id in [BaseGraphId::Bg1, BaseGraphId::Bg2] {
            let bg = BaseGraph::get(id);
            assert_eq!(bg.count_4_cycles(104), 0, "{id:?} has 4-cycles at Z=104");
            assert_eq!(bg.count_4_cycles(384), 0, "{id:?} has 4-cycles at Z=384");
        }
    }

    #[test]
    fn shifts_within_range() {
        let bg = BaseGraph::get(BaseGraphId::Bg1);
        assert!(bg.entries().iter().all(|e| (e.shift as usize) < MAX_Z));
    }
}
