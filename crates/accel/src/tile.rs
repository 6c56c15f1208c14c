//! The CIM tile: one 8-bit logical crossbar and its stationary operand.
//!
//! One tile of the accelerator's tile array: an 8-bit logical crossbar
//! (256x256 in the paper's geometry) built from two 4-bit resistive
//! device arrays (MSB and LSB nibbles, Section IV) — IBM PCM by default,
//! or any other [`cim_pcm::DeviceModel`] the [`AccelConfig`] selects.
//! Each tile holds one stationary operand at a time; the micro-engine
//! tracks residency so that repeated use of the same operand (fused
//! kernels, reused tiles) programs the devices only once — the paper's
//! endurance optimization.
//!
//! A tile keeps one copy of its operand, an f32 shadow its GEMVs read,
//! so offloaded results equal the host's bit for bit. Every install
//! charges its row programs to one [`Crossbar`] of wear counters, one
//! write per 8-bit cell; Table I's per-8-bit costs already fold in the
//! two 4-bit devices of a cell.

use cim_pcm::Crossbar;

use crate::config::AccelConfig;

/// Identity of an installed stationary operand.
///
/// Two requests with equal keys are guaranteed to want the same matrix
/// contents (address, geometry, orientation and a generation number bumped
/// when the host rewrites the buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// Physical base address of the operand in shared memory.
    pub base_pa: u64,
    /// Leading dimension of the source matrix.
    pub ld: usize,
    /// Whether the operand was loaded transposed.
    pub transposed: bool,
    /// Tile origin within the operand (row, col).
    pub origin: (usize, usize),
    /// Active extent `(input_dim, output_dim)`.
    pub extent: (usize, usize),
    /// Generation of the buffer contents (bumped on host writes).
    pub generation: u64,
}

impl TileKey {
    /// Conservative physical byte span `(start, len)` of the source data
    /// this tile was installed from: the contiguous range from the first
    /// to the last element the install read, over-approximated to whole
    /// leading-dimension rows in between. Lets invalidation match
    /// sub-buffer host writes that overlap the operand without containing
    /// its base address.
    pub fn pa_span(&self) -> (u64, u64) {
        let (m0, k0) = self.origin;
        let (kt, mt) = self.extent;
        // The install reads rows k0..k0+kt (transposed) or m0..m0+mt
        // (direct) of the ld-strided source matrix.
        let (first, last) = if self.transposed {
            (k0 * self.ld + m0, (k0 + kt.max(1) - 1) * self.ld + m0 + mt.max(1) - 1)
        } else {
            (m0 * self.ld + k0, (m0 + mt.max(1) - 1) * self.ld + k0 + kt.max(1) - 1)
        };
        let start = self.base_pa + 4 * first as u64;
        (start, 4 * (last - first + 1) as u64)
    }
}

/// Wear summary of one physical tile in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileWear {
    /// Grid lane `(k_lane, m_lane)` of the tile.
    pub tile: (usize, usize),
    /// Total 8-bit cell programs endured by the tile.
    pub cell_writes: u64,
    /// Programs endured by the tile's most-written logical cell.
    pub max_cell_writes: u64,
}

/// One computational memory tile: the crossbar that carries the wear of
/// every install, and the f32 shadow of the operand the GEMV reads.
#[derive(Debug, Clone)]
pub struct CimTile {
    rows: usize,
    cols: usize,
    xbar: Crossbar,
    /// The stationary operand in crossbar orientation
    /// (`shadow[r * cols + c]`).
    shadow: Vec<f32>,
    active: (usize, usize),
    resident: Option<TileKey>,
}

impl CimTile {
    /// Creates a tile from the accelerator configuration.
    pub fn new(cfg: &AccelConfig) -> Self {
        CimTile {
            rows: cfg.rows,
            cols: cfg.cols,
            xbar: Crossbar::new(cfg.rows, cfg.cols),
            shadow: vec![0.0; cfg.rows * cfg.cols],
            active: (0, 0),
            resident: None,
        }
    }

    /// Word-line capacity (input dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit-line capacity (output dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Currently resident operand, if any.
    pub fn resident(&self) -> Option<&TileKey> {
        self.resident.as_ref()
    }

    /// Installs a stationary operand given in crossbar orientation:
    /// `g[r * out_dim + c]` with `r < in_dim` word lines and `c < out_dim`
    /// bit lines. If `key` matches the resident operand the install is a
    /// no-op (the endurance win). Otherwise `g` is copied into the shadow
    /// and rows `0..in_dim` each program the column prefix `0..out_dim`.
    /// What an install costs follows from its shape; [`crate::estimate`]
    /// charges it.
    ///
    /// # Panics
    ///
    /// Panics if the extent exceeds the crossbar or `g` has the wrong size.
    pub fn install(&mut self, key: TileKey, g: &[f32], in_dim: usize, out_dim: usize) {
        assert!(in_dim <= self.rows && out_dim <= self.cols, "tile extent exceeds crossbar");
        assert_eq!(g.len(), in_dim * out_dim, "operand size mismatch");
        if self.resident.as_ref() == Some(&key) {
            return;
        }
        // The column buffers enable only the active columns (Section
        // II-B), so each row programs the prefix `0..out_dim`. Both nibble
        // arrays share row drivers and program in lockstep; latency is one
        // row-program, energy covers the 8-bit cells.
        for r in 0..in_dim {
            self.shadow[r * self.cols..r * self.cols + out_dim]
                .copy_from_slice(&g[r * out_dim..(r + 1) * out_dim]);
            self.xbar.record_program(r, out_dim);
        }
        self.active = (in_dim, out_dim);
        self.resident = Some(key);
    }

    /// Invalidates residency (e.g. the host rewrote shared memory without
    /// bumping the generation — the driver calls this conservatively).
    pub fn invalidate(&mut self) {
        self.resident = None;
    }

    /// Computes `out[c] = sum_r input[r] * G[r][c]` over the active
    /// extent, overwriting `out`: the one-column case of
    /// [`CimTile::gemv_panel_into`].
    ///
    /// # Panics
    ///
    /// Panics if nothing is installed, or if `input.len()` or
    /// `out.len()` differs from the active input or output dimension.
    pub fn gemv_into(&self, input: &[f32], out: &mut [f32]) {
        self.gemv_panel_into(input, 1, out);
    }

    /// Runs one GEMV per column of a panel of `width` input vectors,
    /// overwriting `out`:
    /// `out[j * out_dim + c] = sum_r input[r * width + j] * G[r][c]` over
    /// the active `in_dim x out_dim` extent. The panel is row-major
    /// (`in_dim` rows of `width` inputs), as a gather of `width` adjacent
    /// columns of `B` delivers it; each output vector is contiguous.
    ///
    /// Every output element is computed in one order: rows ascending, a
    /// zero input skipped, multiply then add (no fused multiply-add).
    /// Each row of the shadow is read once per panel and applied to every
    /// column of it.
    ///
    /// # Panics
    ///
    /// Panics if nothing is installed, if `width` is zero, or if
    /// `input.len()` or `out.len()` differs from `width` times the active
    /// input or output dimension.
    pub fn gemv_panel_into(&self, input: &[f32], width: usize, out: &mut [f32]) {
        let (in_dim, out_dim) = self.active;
        assert!(self.resident.is_some(), "no operand installed");
        assert!(width > 0, "empty panel");
        assert_eq!(input.len(), in_dim * width, "input length mismatch");
        assert_eq!(out.len(), out_dim * width, "output length mismatch");
        panel_gemv(&self.shadow, self.cols, input, width, out_dim, out);
    }

    /// [`CimTile::gemv_into`] into a fresh vector.
    pub fn gemv(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0f32; self.active.1];
        self.gemv_into(input, &mut out);
        out
    }

    /// Total cell programs endured by the tile, in 8-bit cells (the two
    /// 4-bit devices of one logical cell count as one write, as in Table
    /// I's per-8-bit figures).
    pub fn cell_writes(&self) -> u64 {
        self.xbar.wear().cell_writes
    }

    /// Wear of the most-written logical cell.
    pub fn max_cell_writes(&self) -> u64 {
        self.xbar.wear().max_cell_writes
    }
}

/// The panel GEMV of [`CimTile::gemv_panel_into`] over the shadow
/// `g` (row stride `ld`): the AVX2 build of [`panel_gemv_body`] when the
/// CPU has AVX2, the baseline build otherwise. Both compute the same
/// bits; the wider vectors only run more output elements at once.
fn panel_gemv(g: &[f32], ld: usize, x: &[f32], width: usize, out_dim: usize, out: &mut [f32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the only feature this build of
        // the body assumes.
        return unsafe { panel_gemv_avx2(g, ld, x, width, out_dim, out) };
    }
    panel_gemv_body(g, ld, x, width, out_dim, out);
}

/// [`panel_gemv_body`] compiled for AVX2. Only `avx2` is enabled, never
/// `fma`, so each multiply and add still rounds on its own.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn panel_gemv_avx2(g: &[f32], ld: usize, x: &[f32], width: usize, out_dim: usize, out: &mut [f32]) {
    panel_gemv_body(g, ld, x, width, out_dim, out);
}

/// `out[j * out_dim + c] = sum_r x[r * width + j] * g[r * ld + c]`, each
/// element accumulated from zero over rows ascending, skipping a zero
/// input, multiply then add. Row `r` of `g` is applied to all `width`
/// columns before row `r + 1`; the inner loop runs along `c`, where the
/// compiler vectorizes it without changing any element's order.
#[inline(always)]
fn panel_gemv_body(g: &[f32], ld: usize, x: &[f32], width: usize, out_dim: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (r, xr) in x.chunks_exact(width).enumerate() {
        let row = &g[r * ld..r * ld + out_dim];
        for (j, xv) in xr.iter().enumerate() {
            if *xv == 0.0 {
                continue;
            }
            for (o, gv) in out[j * out_dim..(j + 1) * out_dim].iter_mut().zip(row) {
                *o += xv * gv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(gen: u64) -> TileKey {
        TileKey {
            base_pa: 0x1000,
            ld: 4,
            transposed: false,
            origin: (0, 0),
            extent: (4, 3),
            generation: gen,
        }
    }

    fn cfg() -> AccelConfig {
        AccelConfig::test_small()
    }

    #[test]
    fn install_then_exact_gemv() {
        let mut t = CimTile::new(&cfg());
        // G is 4x3 in crossbar orientation (inputs x outputs).
        let g = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        t.install(key(0), &g, 4, 3);
        assert_eq!(t.cell_writes(), 4 * 3); // only active columns programmed
        assert_eq!(t.max_cell_writes(), 1);
        let y = t.gemv(&[1.0, 0.0, 0.0, 2.0]);
        assert_eq!(y, vec![1.0 + 20.0, 2.0 + 22.0, 3.0 + 24.0]);
    }

    #[test]
    fn resident_hit_skips_programming() {
        let mut t = CimTile::new(&cfg());
        let g = vec![1.0f32; 12];
        t.install(key(0), &g, 4, 3);
        assert_eq!(t.cell_writes(), 12);
        t.install(key(0), &g, 4, 3);
        assert_eq!(t.cell_writes(), 12);
        assert_eq!(t.max_cell_writes(), 1);
    }

    #[test]
    fn generation_bump_forces_reinstall() {
        let mut t = CimTile::new(&cfg());
        let g = vec![1.0f32; 12];
        t.install(key(0), &g, 4, 3);
        t.install(key(1), &g, 4, 3);
        assert_eq!(t.cell_writes(), 24);
        assert_eq!(t.max_cell_writes(), 2);
    }

    #[test]
    fn invalidate_clears_residency() {
        let mut t = CimTile::new(&cfg());
        let g = vec![1.0f32; 12];
        t.install(key(0), &g, 4, 3);
        t.invalidate();
        assert_eq!(t.resident(), None);
        t.install(key(0), &g, 4, 3);
        assert_eq!(t.max_cell_writes(), 2);
    }

    #[test]
    fn reinstall_overwrites_previous_operand() {
        let mut t = CimTile::new(&cfg());
        let g1 = vec![5.0f32; 12];
        t.install(key(0), &g1, 4, 3);
        let g2 = [1.0f32, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let k2 = TileKey { base_pa: 0x2000, extent: (3, 3), ..key(0) };
        t.install(k2, &g2, 3, 3);
        let y = t.gemv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    /// Reference tile: per-cell write counts and the resident operand,
    /// updated install by install.
    struct Reference {
        writes: Vec<u64>,
        resident: Option<(TileKey, Vec<f32>)>,
    }

    impl Reference {
        fn install(&mut self, key: TileKey, g: &[f32]) {
            if self.resident.as_ref().is_some_and(|(k, _)| *k == key) {
                return;
            }
            let (in_dim, out_dim) = key.extent;
            for r in 0..in_dim {
                for c in 0..out_dim {
                    self.writes[r * 8 + c] += 1;
                }
            }
            self.resident = Some((key, g.to_vec()));
        }

        /// Row-order GEMV of the resident operand.
        fn gemv(&self, x: &[f32]) -> Vec<f32> {
            let (key, g) = self.resident.as_ref().expect("installed");
            row_order_panel(g, key.extent.1, x, 1, key.extent.1)
        }
    }

    /// Row-order reference of a panel GEMV over `g` (row stride `ld`):
    /// each output element on its own, rows ascending, zero inputs
    /// skipped, multiply then add.
    fn row_order_panel(g: &[f32], ld: usize, x: &[f32], width: usize, out_dim: usize) -> Vec<f32> {
        let in_dim = x.len() / width;
        let mut out = vec![0f32; width * out_dim];
        for j in 0..width {
            for c in 0..out_dim {
                let mut acc = 0f32;
                for r in 0..in_dim {
                    let xv = x[r * width + j];
                    if xv != 0.0 {
                        acc += xv * g[r * ld + c];
                    }
                }
                out[j * out_dim + c] = acc;
            }
        }
        out
    }

    /// Pool value `i`, with every sixth a `0.0` and every sixth a `-0.0`.
    fn value(pool: &[f32], zeros: &[usize], i: usize) -> f32 {
        match zeros[i % zeros.len()] {
            0 => 0.0,
            1 => -0.0,
            _ => pool[i % pool.len()],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A tile takes a random install sequence on `test_small` (8x8)
        /// tiles. Step `i` installs operand `key_picks[i]` (one of three
        /// bases with its own extent up to 8x8) at generation
        /// `gen_picks[i]`, so keys repeat and generations move; contents
        /// follow the key. After each install the tile reports the
        /// reference's wear and residency, and its GEMV matches the
        /// row-order reference bit for bit.
        #[test]
        fn one_operand_copy_per_tile_matches_reference(
            steps in 1usize..13,
            dims in collection::vec(1usize..9, 6..7),
            key_picks in collection::vec(0usize..3, 12..13),
            gen_picks in collection::vec(0u64..2, 12..13),
            pool in collection::vec(-4.0f32..4.0, 61..62),
            zeros in collection::vec(0usize..6, 53..54),
        ) {
            let mut tile = CimTile::new(&cfg());
            let mut reference = Reference { writes: vec![0; 64], resident: None };
            for i in 0..steps {
                let (k, generation) = (key_picks[i], gen_picks[i]);
                let (in_dim, out_dim) = (dims[2 * k], dims[2 * k + 1]);
                let key = TileKey {
                    base_pa: 0x1000 * (k as u64 + 1),
                    ld: 8,
                    transposed: false,
                    origin: (0, 0),
                    extent: (in_dim, out_dim),
                    generation,
                };
                let seed = 7 * k + 3 * generation as usize;
                let g: Vec<f32> =
                    (0..in_dim * out_dim).map(|j| value(&pool, &zeros, seed + j)).collect();
                reference.install(key, &g);
                tile.install(key, &g, in_dim, out_dim);
                let total: u64 = reference.writes.iter().sum();
                let max = reference.writes.iter().copied().max().unwrap_or(0);
                let resident = reference.resident.as_ref().map(|(k, _)| k);
                prop_assert_eq!(tile.cell_writes(), total);
                prop_assert_eq!(tile.max_cell_writes(), max);
                prop_assert_eq!(tile.resident(), resident);

                let resident_in = reference.resident.as_ref().map_or(0, |(k, _)| k.extent.0);
                let x: Vec<f32> =
                    (0..resident_in).map(|j| value(&pool, &zeros, 5 * i + 11 * j)).collect();
                let want_y = reference.gemv(&x);
                let mut y = vec![f32::NAN; want_y.len()];
                tile.gemv_into(&x, &mut y);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&y), bits(&want_y));
            }
        }
    }

    /// Word lines and bit lines of the tile the panel kernel test uses.
    const PANEL_TILE: usize = 64;

    /// Weight `i` of the panel kernel test: a pool value, or now and then
    /// a signed zero, a signed subnormal or the smallest normal.
    fn weight(pool: &[f32], kinds: &[usize], i: usize) -> f32 {
        match kinds[i % kinds.len()] {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1),
            3 => -1.0e-40,
            4 => f32::MIN_POSITIVE,
            _ => pool[i % pool.len()],
        }
    }

    /// Input `i` of the panel kernel test: as [`weight`], with
    /// `f32::MAX` in place of the smallest normal, so that some products
    /// overflow to infinity and some sums to NaN.
    fn input(pool: &[f32], kinds: &[usize], i: usize) -> f32 {
        match kinds[i % kinds.len()] {
            4 => f32::MAX,
            _ => weight(pool, kinds, i),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every build of the panel GEMV the CPU can run — the baseline
        /// body always, the AVX2 body when the CPU has AVX2, and the
        /// dispatch behind `CimTile::gemv_panel_into` on a 64x64 tile —
        /// matches the row-order reference for 1 to 16 columns and
        /// `in_dim`, `out_dim` in 1..=64, which covers several vectors
        /// and ragged tails. Rows with `poison[r] == 0` hold infinite and
        /// NaN weights under zero inputs only, so the zero skip must keep
        /// them out. Results match by bits; a NaN needs only to be NaN on
        /// both sides.
        #[test]
        fn panel_gemv_matches_row_order_reference(
            width in 1usize..17,
            in_dim in 1usize..65,
            out_dim in 1usize..65,
            pool in collection::vec(-4.0f32..4.0, 61..62),
            kinds in collection::vec(0usize..32, 97..98),
            poison in collection::vec(0usize..8, 64..65),
        ) {
            const LD: usize = PANEL_TILE;
            let poisoned = |r: usize| poison[r] == 0;
            let g: Vec<f32> = (0..in_dim * LD)
                .map(|i| match (poisoned(i / LD), i % 3) {
                    (true, 0) => f32::INFINITY,
                    (true, 1) => f32::NEG_INFINITY,
                    (true, _) => f32::NAN,
                    (false, _) => weight(&pool, &kinds, i),
                })
                .collect();
            let x: Vec<f32> = (0..in_dim * width)
                .map(|i| match (poisoned(i / width), i % 2) {
                    (true, 0) => 0.0,
                    (true, _) => -0.0,
                    (false, _) => input(&pool, &kinds, 7 * i + 3),
                })
                .collect();
            let want = row_order_panel(&g, LD, &x, width, out_dim);

            let mut runs = Vec::new();
            let mut out = vec![f32::NAN; width * out_dim];
            panel_gemv_body(&g, LD, &x, width, out_dim, &mut out);
            runs.push(("baseline", out.clone()));
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2.
                unsafe { panel_gemv_avx2(&g, LD, &x, width, out_dim, &mut out) };
                runs.push(("avx2", out.clone()));
            }
            let cfg = AccelConfig { rows: PANEL_TILE, cols: PANEL_TILE, ..cfg() };
            let mut tile = CimTile::new(&cfg);
            let packed: Vec<f32> =
                (0..in_dim).flat_map(|r| g[r * LD..r * LD + out_dim].iter().copied()).collect();
            let key = TileKey { ld: LD, extent: (in_dim, out_dim), ..key(0) };
            tile.install(key, &packed, in_dim, out_dim);
            tile.gemv_panel_into(&x, width, &mut out);
            runs.push(("tile", out));

            let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            for (path, got) in &runs {
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(same(*g, *w), "{path}: element {i} is {g:?}, want {w:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_panics() {
        let mut t = CimTile::new(&cfg());
        t.install(key(0), &[0.0; 12], 4, 3);
        let _ = t.gemv(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds crossbar")]
    fn oversized_install_panics() {
        let mut t = CimTile::new(&cfg());
        t.install(key(0), &vec![0.0; 9 * 8], 9, 8);
    }
}
