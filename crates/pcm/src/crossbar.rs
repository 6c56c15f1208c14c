//! Memristive crossbar array.
//!
//! Fig. 2 (c): PCM devices sit at the junctions of word lines (rows) and
//! bit lines (columns). A matrix is stored as conductances `G[x][y]`;
//! the input vector is applied as row voltages and each column current
//! is the dot product `I_j = sum_i v_i * G[i][j]` (Ohm + Kirchhoff).
//! The tile that owns the array computes that product from an f32 copy
//! of its operand, so the array itself keeps only what the devices
//! endure: wear.
//!
//! The array keeps running wear counters plus per-row program counts.
//! Programming is row-granular and always covers a column prefix (the
//! column buffers enable `0..len`), so a row's first cell is written by
//! every non-empty program of that row and the row count is exactly the
//! write count of its most-written cell. [`Crossbar::record_program`]
//! counts each program.

/// Wear statistics of a crossbar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Total cell program operations.
    pub cell_writes: u64,
    /// Program operations of the most-written cell.
    pub max_cell_writes: u64,
    /// Row-granular program operations (one per `record_program`).
    pub row_programs: u64,
}

/// The wear of a `rows x cols` array of resistive cells.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    /// Non-empty programs per row: the write count of the row's
    /// column 0, its most-written cell.
    row_writes: Vec<u64>,
    wear: WearStats,
}

impl Crossbar {
    /// Creates a crossbar of fresh cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        Crossbar { rows, cols, row_writes: vec![0; rows], wear: WearStats::default() }
    }

    /// Number of word lines.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Counts a program of columns `0..len` of row `r` (column-buffer
    /// contents with the row-enable on this word line, Section II-B):
    /// one row-program event for latency purposes, and one write per
    /// programmed cell. Columns past the prefix take no write.
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
        assert_eq!(bar().wear(), WearStats::default());
    }

    #[test]
    fn wear_tracks_max_cell() {
        let mut b = bar();
        for _ in 0..5 {
            b.record_program(1, 2);
        }
        b.record_program(0, 1);
        let w = b.wear();
        assert_eq!(w.cell_writes, 11);
        assert_eq!(w.max_cell_writes, 5);
        assert_eq!(w.row_programs, 6);
    }

    /// The column buffers enable `0..len`: columns past the prefix take
    /// no write.
    #[test]
    fn masked_program_skips_unselected() {
        let mut b = bar();
        b.record_program(2, 2);
        assert_eq!(b.wear().cell_writes, 2);
        b.record_program(2, 1);
        let w = b.wear();
        assert_eq!(w.cell_writes, 3);
        assert_eq!(w.max_cell_writes, 2);
        assert_eq!(w.row_programs, 2);
    }

    /// Per-cell reference model: a write count for every device,
    /// updated cell by cell.
    struct Reference {
        cols: usize,
        writes: Vec<u64>,
        row_programs: u64,
    }

    impl Reference {
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The running wear counters agree with a per-cell reference
        /// after every prefix program, empty ones included. Step `i`
        /// records a program of the first `len_picks[i] % (cols + 1)`
        /// columns of row `row_picks[i] % rows`.
        #[test]
        fn prefix_programs_match_per_cell_reference(
            rows in 1usize..5,
            cols in 1usize..6,
            steps in 1usize..25,
            row_picks in collection::vec(0usize..64, 24..25),
            len_picks in collection::vec(0usize..64, 24..25),
        ) {
            let mut bar = Crossbar::new(rows, cols);
            let mut reference = Reference { cols, writes: vec![0; rows * cols], row_programs: 0 };
            for i in 0..steps {
                let (r, len) = (row_picks[i] % rows, len_picks[i] % (cols + 1));
                bar.record_program(r, len);
                reference.record_program(r, len);
                prop_assert_eq!(bar.wear(), reference.wear());
            }
        }
    }

    /// A width that would wrap the write counter is rejected, not
    /// counted.
    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let mut b = bar();
        b.record_program(0, 3);
        b.record_program(0, usize::MAX);
    }

    /// An empty program of a row past the array still panics: the row
    /// check runs before the empty-program early-out.
    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        bar().record_program(4, 0);
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
}
