//! Memristive crossbar array.
//!
//! Fig. 2 (c): PCM devices sit at the junctions of word lines (rows) and
//! bit lines (columns). A matrix is stored as conductance levels
//! `G[x][y]`; the input vector is applied as row voltages and each column
//! current is the dot product `I_j = sum_i v_i * G[i][j]` (Ohm +
//! Kirchhoff). [`Crossbar::dot_levels`] computes it as the exact integer
//! dot product of the stored levels, which the digital-fidelity pipeline
//! reads through the ADCs.
//!
//! The array keeps one state: the packed levels (one byte per device)
//! plus per-row program counts. Programming is row-granular and always
//! covers a column prefix (the column buffers enable `0..len`), so a
//! row's first cell is written by every non-empty program of that row and
//! the row count is exactly the write count of its most-written cell.
//! Every program is counted by [`Crossbar::record_program`]: called
//! alone it charges the wear of a program whose levels nobody reads (an
//! Exact-fidelity tile), and [`Crossbar::program_row`] stores the levels
//! and then counts through it.

/// Distinct levels a device stores (the paper's 4-bit IBM PCM part).
pub const LEVELS: u8 = 16;

/// Wear statistics of a crossbar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Total cell program operations.
    pub cell_writes: u64,
    /// Program operations of the most-written cell.
    pub max_cell_writes: u64,
    /// Row-granular program operations (one per `program_row`).
    pub row_programs: u64,
}

/// A `rows x cols` array of multi-level PCM cells: packed levels, which
/// only the quantized datapath programs and reads, and running wear.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    /// Stored levels, `levels[r * cols + c]`.
    levels: Vec<u8>,
    /// Non-empty programs per row: the write count of the row's
    /// column 0, its most-written cell.
    row_writes: Vec<u64>,
    wear: WearStats,
}

impl Crossbar {
    /// Creates a crossbar of fresh (reset) cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        Crossbar {
            rows,
            cols,
            levels: vec![0u8; rows * cols],
            row_writes: vec![0; rows],
            wear: WearStats::default(),
        }
    }

    /// Number of word lines.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Programs columns `0..levels.len()` of row `r` (column-buffer
    /// contents with the row-enable on this word line, Section II-B);
    /// the remaining columns keep their levels. Counts one row-program
    /// event for latency purposes, and one write per programmed cell,
    /// through [`Crossbar::record_program`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range, `levels` is wider than the row, or
    /// any level is not below [`LEVELS`].
    pub fn program_row(&mut self, r: usize, levels: &[u8]) {
        assert!(levels.len() <= self.cols, "row width mismatch");
        assert!(r < self.rows, "row {r} out of range");
        let max = levels.iter().copied().max().unwrap_or(0);
        assert!(max < LEVELS, "level {max} out of range");
        let base = r * self.cols;
        self.levels[base..base + levels.len()].copy_from_slice(levels);
        self.record_program(r, levels.len());
    }

    /// Counts a program of columns `0..len` of row `r` without storing
    /// levels: the wear of [`Crossbar::program_row`] with `len` levels,
    /// for a tile whose datapath never reads the levels back (the Exact
    /// fidelity computes from an f32 copy of the operand).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `len` is wider than the row.
    pub fn record_program(&mut self, r: usize, len: usize) {
        assert!(len <= self.cols, "row width mismatch");
        assert!(r < self.rows, "row {r} out of range");
        self.wear.row_programs += 1;
        if len > 0 {
            self.row_writes[r] += 1;
            self.wear.cell_writes += len as u64;
            self.wear.max_cell_writes = self.wear.max_cell_writes.max(self.row_writes[r]);
        }
    }

    /// Stored level of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn level(&self, r: usize, c: usize) -> u8 {
        assert!(r < self.rows && c < self.cols, "cell ({r},{c}) out of range");
        self.levels[r * self.cols + c]
    }

    /// Idealized integer GEMV over stored levels:
    /// `out[j] = sum_i inputs[i] * level(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows`.
    pub fn dot_levels(&self, inputs: &[i32]) -> Vec<i64> {
        let mut out = vec![0i64; self.cols];
        self.dot_levels_into(inputs, &mut out);
        out
    }

    /// Allocation-free form of [`Crossbar::dot_levels`]: accumulates the
    /// integer dot products into `out` (which is zeroed first).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows` or `out.len() != cols`.
    pub fn dot_levels_into(&self, inputs: &[i32], out: &mut [i64]) {
        assert_eq!(inputs.len(), self.rows, "input length mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        out.iter_mut().for_each(|o| *o = 0);
        for (r, x) in inputs.iter().enumerate() {
            if *x == 0 {
                continue;
            }
            let row = &self.levels[r * self.cols..(r + 1) * self.cols];
            for (o, lv) in out.iter_mut().zip(row) {
                *o += *x as i64 * *lv as i64;
            }
        }
    }

    /// Current wear statistics (running totals, O(1)).
    pub fn wear(&self) -> WearStats {
        self.wear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bar() -> Crossbar {
        Crossbar::new(4, 3)
    }

    #[test]
    fn fresh_crossbar_is_all_zero() {
        let b = bar();
        assert_eq!(b.dot_levels(&[1, 1, 1, 1]), vec![0, 0, 0]);
        assert_eq!(b.wear(), WearStats::default());
    }

    #[test]
    fn program_row_then_dot() {
        let mut b = bar();
        b.program_row(0, &[1, 2, 3]);
        b.program_row(1, &[4, 5, 6]);
        // out_j = 10*row0_j + 100*row1_j
        assert_eq!(b.dot_levels(&[10, 100, 0, 0]), vec![410, 520, 630]);
        let w = b.wear();
        assert_eq!(w.cell_writes, 6);
        assert_eq!(w.row_programs, 2);
        assert_eq!(w.max_cell_writes, 1);
    }

    #[test]
    fn wear_tracks_max_cell() {
        let mut b = bar();
        for _ in 0..5 {
            b.program_row(1, &[3, 3]);
        }
        b.program_row(0, &[1]);
        let w = b.wear();
        assert_eq!(w.cell_writes, 11);
        assert_eq!(w.max_cell_writes, 5);
        assert_eq!(w.row_programs, 6);
    }

    /// The column buffers enable `0..len`: columns past the prefix keep
    /// their levels and take no write.
    #[test]
    fn masked_program_skips_unselected() {
        let mut b = bar();
        b.program_row(2, &[7, 7]);
        assert_eq!(b.level(2, 0), 7);
        assert_eq!(b.level(2, 1), 7);
        assert_eq!(b.level(2, 2), 0);
        assert_eq!(b.wear().cell_writes, 2);
        b.program_row(2, &[3]);
        assert_eq!(b.level(2, 0), 3);
        assert_eq!(b.level(2, 1), 7);
        assert_eq!(b.level(2, 2), 0);
        let w = b.wear();
        assert_eq!(w.cell_writes, 3);
        assert_eq!(w.max_cell_writes, 2);
        assert_eq!(w.row_programs, 2);
    }

    #[test]
    fn negative_inputs_supported() {
        let mut b = bar();
        b.program_row(0, &[5, 0, 1]);
        assert_eq!(b.dot_levels(&[-2, 0, 0, 0]), vec![-10, 0, -2]);
    }

    /// Per-cell reference model: a level and a write count for every
    /// device, updated cell by cell.
    struct Reference {
        cols: usize,
        levels: Vec<u8>,
        writes: Vec<u64>,
        row_programs: u64,
    }

    impl Reference {
        fn program_row(&mut self, r: usize, levels: &[u8]) {
            for (c, lv) in levels.iter().enumerate() {
                self.levels[r * self.cols + c] = *lv;
                self.writes[r * self.cols + c] += 1;
            }
            self.row_programs += 1;
        }

        fn record_program(&mut self, r: usize, len: usize) {
            for c in 0..len {
                self.writes[r * self.cols + c] += 1;
            }
            self.row_programs += 1;
        }

        fn wear(&self) -> WearStats {
            WearStats {
                cell_writes: self.writes.iter().sum(),
                max_cell_writes: self.writes.iter().copied().max().unwrap_or(0),
                row_programs: self.row_programs,
            }
        }

        fn dot(&self, inputs: &[i32]) -> Vec<i64> {
            (0..self.cols)
                .map(|c| {
                    inputs
                        .iter()
                        .enumerate()
                        .map(|(r, x)| *x as i64 * self.levels[r * self.cols + c] as i64)
                        .sum()
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The running wear counters and packed levels agree with a
        /// per-cell reference after every prefix program, empty ones
        /// included. Step `i` programs row `row_picks[i] % rows` with the
        /// first `len_picks[i] % (cols + 1)` levels of its pool slice, or,
        /// when `wear_only[i]`, records a program of that prefix and
        /// leaves the levels untouched.
        #[test]
        fn prefix_programs_match_per_cell_reference(
            rows in 1usize..5,
            cols in 1usize..6,
            steps in 1usize..25,
            row_picks in collection::vec(0usize..64, 24..25),
            len_picks in collection::vec(0usize..64, 24..25),
            wear_only in collection::vec(bool::ANY, 24..25),
            pool in collection::vec(0u8..LEVELS, 144..145),
            inputs in collection::vec(-127i32..128, 5..6),
        ) {
            let mut bar = Crossbar::new(rows, cols);
            let mut reference = Reference {
                cols,
                levels: vec![0; rows * cols],
                writes: vec![0; rows * cols],
                row_programs: 0,
            };
            let inputs = &inputs[..rows];
            for i in 0..steps {
                let (r, len) = (row_picks[i] % rows, len_picks[i] % (cols + 1));
                if wear_only[i] {
                    bar.record_program(r, len);
                    reference.record_program(r, len);
                } else {
                    let levels = &pool[6 * i..6 * i + len];
                    bar.program_row(r, levels);
                    reference.program_row(r, levels);
                }
                prop_assert_eq!(bar.wear(), reference.wear());
                for r in 0..rows {
                    for c in 0..cols {
                        prop_assert_eq!(bar.level(r, c), reference.levels[r * cols + c]);
                    }
                }
                prop_assert_eq!(bar.dot_levels(inputs), reference.dot(inputs));
            }
        }
    }

    #[test]
    #[should_panic(expected = "level 16 out of range")]
    fn overrange_level_panics() {
        bar().program_row(0, &[1, 16]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        bar().program_row(0, &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        bar().program_row(4, &[1]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wear_only_wrong_row_width_panics() {
        bar().record_program(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wear_only_out_of_range_row_panics() {
        bar().record_program(4, 1);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_panics() {
        let b = bar();
        b.dot_levels(&[1, 2]);
    }
}
